package cpu

import "testing"

// TestFastPathNames: every level's name parses back to the level (the
// -fastpath flags rely on it), and an unknown name is rejected.
func TestFastPathNames(t *testing.T) {
	for level := Full; level <= Interp; level++ {
		var got FastPath
		if err := got.Set(level.String()); err != nil || got != level {
			t.Errorf("Set(%q) = %v, %v; want %v", level, got, err, level)
		}
	}
	var f FastPath
	if err := f.Set("turbo"); err == nil {
		t.Error(`Set("turbo") accepted an unknown level`)
	}
}
