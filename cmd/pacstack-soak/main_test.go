package main

import (
	"strings"
	"testing"
)

func TestModeError(t *testing.T) {
	cases := []struct {
		name    string
		given   []string
		traffic bool
		refused string // the flag the error must name; "" means valid
	}{
		{"closed loop defaults", nil, false, ""},
		{"closed loop flags", []string{"clients", "requests", "schemes", "workload"}, false, ""},
		{"set-up job", []string{"chaos-rate", "check", "clients", "json", "par", "requests", "seed", "telemetry-dump"}, false, ""},
		{"soak-chaos job", []string{"adaptive", "chaos-rate", "check", "checkpoint-every", "cpuprofile", "heal", "json",
			"par", "retries", "seed", "telemetry-dump", "traffic", "traffic-horizon"}, true, ""},
		{"traffic model flags", []string{"burst-factor", "cores", "traffic-hostile", "traffic-rate"}, true, ""},
		{"adaptive without traffic", []string{"adaptive"}, false, "adaptive"},
		{"adaptive knob without traffic", []string{"adaptive-max"}, false, "adaptive-max"},
		{"horizon without traffic", []string{"seed", "traffic-horizon"}, false, "traffic-horizon"},
		{"burst factor without traffic", []string{"burst-factor"}, false, "burst-factor"},
		{"cores without traffic", []string{"cores"}, false, "cores"},
		{"clients with traffic", []string{"clients", "traffic"}, true, "clients"},
		{"requests with traffic", []string{"requests", "traffic"}, true, "requests"},
		{"workload with traffic", []string{"traffic", "workload"}, true, "workload"},
		{"schemes with traffic", []string{"schemes", "traffic"}, true, "schemes"},
	}
	for _, c := range cases {
		err := modeError(c.given, c.traffic)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.refused != "" && (err == nil || !strings.HasPrefix(err.Error(), "-"+c.refused+" ")):
			t.Errorf("%s: error %v, want one naming -%s", c.name, err, c.refused)
		}
	}
}
