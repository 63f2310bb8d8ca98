//go:build race

package data

const raceEnabled = true
