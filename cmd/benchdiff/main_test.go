package main

import "testing"

func TestCompareDirections(t *testing.T) {
	cases := []struct {
		dir       string
		base, med float64
		want      bool
	}{
		{"lower", 100, 120, false},
		{"lower", 100, 130, true},
		{"lower", 100, 10, false},
		{"higher", 100, 80, false},
		{"higher", 100, 70, true},
		{"higher", 100, 500, false},
		// A zero baseline must stay zero whatever the direction.
		{"lower", 0, 0, false},
		{"lower", 0, 3, true},
		{"higher", 0, 3, true},
	}
	for _, c := range cases {
		_, got := compare(check{Value: c.base, Direction: c.dir}, c.med, 25)
		if got != c.want {
			t.Errorf("%s baseline %g median %g: regressed = %v, want %v", c.dir, c.base, c.med, got, c.want)
		}
	}
}

// The committed gate file parses and uses only known directions.
func TestCommittedBaselineLoads(t *testing.T) {
	if _, err := loadBaseline("../../BENCH_gate.json"); err != nil {
		t.Fatal(err)
	}
}
