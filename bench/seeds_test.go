package main

import (
	"slices"
	"testing"
)

func TestSeedListPrefixStable(t *testing.T) {
	long := seedList(3, streamOps, 100)
	if !slices.Equal(seedList(3, streamOps, 10), long[:10]) {
		t.Error("a longer list must extend a shorter one")
	}
	if slices.Equal(long[:10], seedList(3, streamWarmup, 10)) {
		t.Error("streams must be independent")
	}
	for _, s := range long {
		if s == 0 || s >= 1<<53 {
			t.Fatalf("seed %d outside [1, 2^53)", s)
		}
	}
}

func TestRequestsAreSeededAndDistinct(t *testing.T) {
	reqs := serveCold.requests(5, 400)
	if !slices.Equal(reqs, serveCold.requests(5, 400)) {
		t.Error("requests are not a function of the seed")
	}
	if slices.Equal(reqs, serveCold.requests(6, 400)) {
		t.Error("different seeds, same requests")
	}
	if !slices.Equal(serveCold.requests(5, 64), reqs[:64]) {
		t.Error("a longer request list must extend a shorter one")
	}
	seen := map[serveReq]bool{}
	for _, r := range reqs {
		if seen[r] {
			t.Fatalf("request %v repeats", r)
		}
		seen[r] = true
	}
}
