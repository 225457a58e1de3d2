//go:build race

package landmark

func init() { raceEnabled = true }
