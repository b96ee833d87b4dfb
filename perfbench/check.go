package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"pacstack/internal/serve"
)

// verdict is the checker's classification of one response.
type verdict int

const (
	// verdictOK: a 200 whose output, exit code, instruction and cycle
	// counts all equal the reference interpreter's.
	verdictOK verdict = iota
	// verdictIncorrect: a wrong answer — a mismatching 200, or a
	// silent_corruption response. Any one marks the run incorrect.
	verdictIncorrect
	// verdictFailed: any other non-200 answer or a transport error; a
	// failed operation, counted under its kind.
	verdictFailed
)

// errorBody is the daemon's JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// checked is one classified response.
type checked struct {
	verdict verdict
	// kind is the failure kind (the error envelope's kind, "http_<code>"
	// without one, "transport" for a transport error) or, for an
	// incorrect response, a short reason.
	kind   string
	instrs uint64
	cycles uint64
}

// classify checks one response to req against the reference results.
// transportErr is the error of the exchange itself, if any.
func classify(req serve.Request, status int, body []byte, transportErr error, refs map[pair]ref) checked {
	if transportErr != nil {
		return checked{verdict: verdictFailed, kind: "transport"}
	}
	if status != http.StatusOK {
		var eb errorBody
		if json.Unmarshal(body, &eb) != nil || eb.Kind == "" {
			return checked{verdict: verdictFailed, kind: fmt.Sprintf("http_%d", status)}
		}
		if eb.Kind == "silent_corruption" {
			return checked{verdict: verdictIncorrect, kind: "silent_corruption"}
		}
		return checked{verdict: verdictFailed, kind: eb.Kind}
	}
	var res serve.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return checked{verdict: verdictIncorrect, kind: "undecodable 200"}
	}
	want, ok := refs[pair{req.Workload, req.Scheme}]
	c := checked{instrs: res.Instrs, cycles: res.Cycles}
	switch {
	case !ok:
		c.verdict, c.kind = verdictIncorrect, "no reference for "+req.Workload+"/"+req.Scheme
	case res.Workload != req.Workload || res.Scheme != req.Scheme:
		c.verdict, c.kind = verdictIncorrect, fmt.Sprintf("answered %s/%s", res.Workload, res.Scheme)
	case res.Output != want.Output:
		c.verdict, c.kind = verdictIncorrect, fmt.Sprintf("output %q, reference %q", res.Output, want.Output)
	case res.ExitCode != want.ExitCode:
		c.verdict, c.kind = verdictIncorrect, fmt.Sprintf("exit code %d, reference %d", res.ExitCode, want.ExitCode)
	case res.Instrs != want.Instrs:
		c.verdict, c.kind = verdictIncorrect, fmt.Sprintf("instrs %d, reference %d", res.Instrs, want.Instrs)
	case res.Cycles != want.Cycles:
		c.verdict, c.kind = verdictIncorrect, fmt.Sprintf("cycles %d, reference %d", res.Cycles, want.Cycles)
	}
	return c
}

// tally accumulates verdicts over a run.
type tally struct {
	attempted int64
	failed    map[string]int64
	incorrect map[string]int64
}

func newTally() *tally {
	return &tally{failed: map[string]int64{}, incorrect: map[string]int64{}}
}

func (t *tally) add(req serve.Request, c checked) {
	t.attempted++
	switch c.verdict {
	case verdictFailed:
		t.failed[c.kind]++
	case verdictIncorrect:
		t.incorrect[req.Workload+"/"+req.Scheme+": "+c.kind]++
	}
}

func (t *tally) failures() int64 {
	var n int64
	for _, v := range t.failed {
		n += v
	}
	return n
}

// print writes the failure counts by kind and every incorrect answer.
func (t *tally) print(phase string) {
	fmt.Printf("%s: attempted %d, failed %d [%s], incorrect %d\n", phase, t.attempted, t.failures(), kindSummary(t.failed), len(t.incorrect))
	for k, n := range t.incorrect {
		fmt.Printf("  INCORRECT x%d %s\n", n, k)
	}
}
