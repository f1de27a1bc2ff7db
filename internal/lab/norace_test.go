//go:build !race

package lab_test

const raceEnabled = false
