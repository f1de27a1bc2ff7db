//go:build race

package main

// raceEnabled: under the race detector the compiler keeps the temporary
// slice of Switch.AddVC's append(s, make(…)…), so every install that
// lengthens a port's VC table allocates (about 7 a request, not 0.7) and
// the census bound on AddVC does not apply.
const raceEnabled = true
