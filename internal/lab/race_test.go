//go:build race

package lab_test

// raceEnabled: the race detector's runtime allocates on its own account
// (~6 more a served request), so allocation bounds measured in the plain
// build get their own value under -race.
const raceEnabled = true
