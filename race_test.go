//go:build race

package isis_test

func init() { raceEnabled = true }
