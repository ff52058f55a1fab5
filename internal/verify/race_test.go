//go:build race

package verify

func init() { raceEnabled = true }
