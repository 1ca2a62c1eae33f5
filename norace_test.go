//go:build !race

package photonoc

const raceEnabled = false
