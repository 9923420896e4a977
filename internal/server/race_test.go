//go:build race

package server

// raceEnabled reports a -race build, where sync.Pool drops pooled
// objects at random: allocation counts measure the detector, not the
// server.
const raceEnabled = true
