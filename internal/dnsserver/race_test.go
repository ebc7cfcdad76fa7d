//go:build race

package dnsserver

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// the items put back at random, so pooled buffers allocate.
const raceEnabled = true
