//go:build !race

package reduce

const raceEnabled = false
