package main

import (
	"strings"
	"testing"
)

func TestModeError(t *testing.T) {
	cases := []struct {
		name        string
		given       []string
		chaos, cold bool
		refused     string // the flag the error must name; "" means valid
	}{
		{"defaults", nil, false, false, ""},
		{"benchmark daemon", []string{"addr"}, false, false, ""},
		{"chaos knobs", []string{"chaos", "chaos-kinds", "chaos-rate"}, true, false, ""},
		{"warm pool cap", []string{"pool-machines"}, false, false, ""},
		{"cold", []string{"cold", "workers"}, false, true, ""},
		{"chaos rate without chaos", []string{"chaos-rate"}, false, false, "chaos-rate"},
		{"chaos kinds without chaos", []string{"chaos-kinds", "seed"}, false, false, "chaos-kinds"},
		{"chaos=false with a rate", []string{"chaos", "chaos-rate"}, false, false, "chaos-rate"},
		{"pool cap with cold", []string{"cold", "pool-machines"}, false, true, "pool-machines"},
	}
	for _, c := range cases {
		err := modeError(c.given, c.chaos, c.cold)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.refused != "" && (err == nil || !strings.HasPrefix(err.Error(), "-"+c.refused+" ")):
			t.Errorf("%s: error %v, want one naming -%s", c.name, err, c.refused)
		}
	}
}
