//go:build race

package stream

// raceEnabled reports whether the test binary runs under the race detector,
// whose shadow memory makes heap measurements meaningless.
const raceEnabled = true
