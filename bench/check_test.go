package main

import (
	"slices"
	"strings"
	"testing"

	"distcolor/internal/graph"
)

func TestColorsDecoderAndVerifier(t *testing.T) {
	// A 4-cycle with a chord: 0-1-2-3-0 and 0-2.
	g := graph.MustNew(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	proper := []int{0, 1, 2, 1}
	body := encodeColors(proper)
	got, err := decodeColors(body, g.N())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, proper) {
		t.Fatalf("round trip: %v, want %v", got, proper)
	}
	if err := checkColoring(g, got, 3); err != nil {
		t.Errorf("proper coloring rejected: %v", err)
	}
	if _, err := decodeColors(body[:len(body)-1], g.N()); err == nil {
		t.Error("short colors body accepted")
	}
	if _, err := decodeColors(body, g.N()+1); err == nil {
		t.Error("colors body for another vertex count accepted")
	}
	for name, c := range map[string]struct {
		colors  []int
		palette int
		want    string
	}{
		"monochromatic edge": {[]int{0, 1, 0, 1}, 3, ""},
		"outside palette":    {[]int{0, 1, 2, 1}, 2, "palette"},
		"negative color":     {[]int{0, 1, -1, 1}, 3, "palette"},
		"missing vertex":     {[]int{0, 1, 2}, 3, "vertices"},
	} {
		decoded, err := decodeColors(encodeColors(c.colors), len(c.colors))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		err = checkColoring(g, decoded, c.palette)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: checkColoring = %v, want an error mentioning %q", name, err, c.want)
		}
	}
}

func TestCheckRoundsAgainstRoundBound(t *testing.T) {
	g := graph.MustNew(3, [][2]int{{0, 1}, {1, 2}})
	if err := checkRounds("gps7", g, 1); err != nil {
		t.Errorf("1 round rejected: %v", err)
	}
	if err := checkRounds("gps7", g, 1<<40); err == nil {
		t.Error("round count far above RoundBound accepted")
	}
}
