//go:build race

package main

// raceEnabled reports that the race detector slows everything about tenfold.
const raceEnabled = true
