//go:build race

package main

// raceEnabled drops the ledger's allocation rows: the race runtime allocates
// on its own account.
const raceEnabled = true
