package main

import (
	"strings"
	"testing"
)

func TestModeError(t *testing.T) {
	cases := []struct {
		name            string
		given           []string
		daemon, traffic bool
		refused         string // the flag the error must name; "" means valid
	}{
		{"soak defaults", nil, false, false, ""},
		{"soak-chaos job", []string{"chaos-rate", "check", "clients", "heal", "json", "kill-at",
			"par", "requests", "seed", "telemetry-dump"}, false, false, ""},
		{"set-up job", []string{"chaos-rate", "check", "clients", "json", "par", "requests", "seed", "telemetry-dump"}, false, false, ""},
		{"failover soak", []string{"failover-budget", "kill-at", "kill-backend", "migrate-latency", "schemes", "workload"}, false, false, ""},
		{"mesh soak", []string{"mesh-gray", "resilient", "seed", "traffic", "vertical-max"}, false, true, ""},
		{"daemon", []string{"addr", "chaos-rate", "cold", "daemon", "drain-timeout", "failover-budget", "schemes",
			"state-dir", "timeout", "workers"}, true, false, ""},
		{"cold without daemon", []string{"cold"}, false, false, "cold"},
		{"addr without daemon", []string{"addr", "clients"}, false, false, "addr"},
		{"timeout without daemon", []string{"timeout"}, false, false, "timeout"},
		{"drain timeout without daemon", []string{"drain-timeout"}, false, false, "drain-timeout"},
		{"state dir without daemon", []string{"state-dir", "traffic"}, false, true, "state-dir"},
		{"clients under daemon", []string{"clients", "daemon"}, true, false, "clients"},
		{"kill under daemon", []string{"daemon", "kill-at"}, true, false, "kill-at"},
		{"traffic under daemon", []string{"daemon", "schemes", "traffic"}, true, true, "traffic"},
		{"json under daemon", []string{"daemon", "json"}, true, false, "json"},
		{"clients with traffic", []string{"clients", "traffic"}, false, true, "clients"},
		{"requests with traffic", []string{"requests", "traffic"}, false, true, "requests"},
		{"workload with traffic", []string{"traffic", "workload"}, false, true, "workload"},
		{"schemes with traffic", []string{"schemes", "traffic"}, false, true, "schemes"},
		{"migrate latency with traffic", []string{"migrate-latency", "traffic"}, false, true, "migrate-latency"},
		{"failover budget with traffic", []string{"failover-budget", "traffic"}, false, true, "failover-budget"},
	}
	for _, c := range cases {
		err := modeError(c.given, c.daemon, c.traffic)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.refused != "" && (err == nil || !strings.HasPrefix(err.Error(), "-"+c.refused+" ")):
			t.Errorf("%s: error %v, want one naming -%s", c.name, err, c.refused)
		}
	}
}
