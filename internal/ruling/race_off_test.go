//go:build !race

package ruling

const raceEnabled = false
