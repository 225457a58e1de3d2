//go:build race

package dynamic

func init() { raceEnabled = true }
