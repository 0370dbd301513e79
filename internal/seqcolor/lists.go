package seqcolor

import "slices"

// Lists is a run's list assignment. It is either canonical k — every list
// is {0, …, k−1}, held once with no per-vertex data — or the caller's
// per-vertex lists, used as given. A run on the canonical palette pays
// nothing per vertex for it: there are no slice headers for the collector
// to scan, and the whole-graph checks (list lengths, identical lists) are
// one comparison. The zero value holds no lists: Verify skips
// the list check on it, and core.Config reads it as the canonical palette
// of its d. A Lists is read-only and may be shared.
type Lists struct {
	given [][]int // the per-vertex lists; nil when canonical
	canon []int   // {0, …, k−1} when canonical, shared by every vertex
}

// Canonical returns the canonical lists {0, …, k−1} of every vertex.
func Canonical(k int) Lists {
	canon := make([]int, max(k, 0))
	for c := range canon {
		canon[c] = c
	}
	return Lists{canon: canon}
}

// Given returns the per-vertex lists lists[v], used as given; nil gives the
// zero Lists.
func Given(lists [][]int) Lists { return Lists{given: lists} }

// Of returns v's list: the one shared canonical slice, or the given one.
// It must not be modified.
func (l Lists) Of(v int) []int {
	if l.given != nil {
		return l.given[v]
	}
	return l.canon
}

// Given returns the per-vertex lists, nil when l is canonical or zero.
func (l Lists) Given() [][]int { return l.given }

// IsZero reports whether l holds no lists.
func (l Lists) IsZero() bool { return l.given == nil && l.canon == nil }

// contains reports whether c is in v's list.
func (l Lists) contains(v, c int) bool {
	if l.given != nil {
		return slices.Contains(l.given[v], c)
	}
	return c >= 0 && c < len(l.canon)
}

// Short returns the first of the vertices 0, …, n−1 whose list is shorter
// than need, or -1 when there is none. Canonical lists take one comparison.
func (l Lists) Short(n, need int) int {
	if l.given == nil {
		if n == 0 || len(l.canon) >= need {
			return -1
		}
		return 0
	}
	for v, list := range l.given[:n] {
		if len(list) < need {
			return v
		}
	}
	return -1
}

// same reports whether each of the first n ≥ 1 lists equals the first, as
// canonical lists all do.
func (l Lists) same(n int) bool {
	if l.given == nil {
		return true
	}
	first := l.given[0]
	return !slices.ContainsFunc(l.given[1:n], func(list []int) bool { return !slices.Equal(list, first) })
}

// allLen reports whether each of the first n lists has length k.
func (l Lists) allLen(n, k int) bool {
	if l.given == nil {
		return len(l.canon) == k
	}
	return !slices.ContainsFunc(l.given[:n], func(list []int) bool { return len(list) != k })
}
