// Outlier ejection: the defense against gray backends. A breaker
// catches a backend that fails loudly — requests error, the failure
// count crosses a threshold, the circuit opens. It is blind to a
// backend that still answers every probe while a degraded link adds
// 200k cycles to each round trip or eats one message in ten: nothing
// "fails", the class p99 just quietly dies. The ejector watches the
// two signals that expose gray-ness — per-attempt latency dilation
// (observed occupancy against the request's intrinsic cost) and the
// attempt error rate (timeouts, lost messages) — as integer EWMAs,
// and when either crosses its threshold it pulls the backend out of
// the routing candidate set for a cooldown.
//
// Ejection is deliberately a separate axis from the breaker: the
// breaker is the backend's own health verdict (executions failing),
// ejection is the *comparative* network-path verdict (this backend is
// an outlier against what the request should have cost). The soak
// keeps both: execution failures feed the breaker, transport
// timeouts and dilation feed the ejector, and the router excludes a
// backend when either says so.
//
// All arithmetic is integer (EWMAs in permille, alpha a rational), so
// the same observation sequence ejects at the same instant on every
// machine — the byte-identity contract.

package cluster

// Ejection thresholds and EWMA weight.
const (
	// errPermille ejects when the error-rate EWMA (errors per attempt,
	// in permille) crosses it.
	errPermille = 300
	// dilationPermille ejects when the latency-dilation EWMA crosses
	// it. A sample's dilation is observed/intrinsic in permille, so
	// 1000 is "exactly as expected"; 4000 ejects a backend whose
	// attempts are running 4x their intrinsic cost.
	dilationPermille = 4000
	// alphaNum/alphaDen is the EWMA weight for new samples.
	alphaNum, alphaDen = 1, 8
)

// OutlierConfig parameterises the ejector. Zero values get defaults.
type OutlierConfig struct {
	// MinSamples gates ejection until the EWMA has seen this many
	// attempts since (re)instatement, so one unlucky request cannot
	// eject a healthy backend. Default 16.
	MinSamples int `json:"min_samples"`

	// Cooldown is how long (virtual cycles) an ejected backend stays
	// out of the candidate set. Default 200_000.
	Cooldown uint64 `json:"cooldown"`
}

func (c OutlierConfig) withDefaults() OutlierConfig {
	if c.MinSamples <= 0 {
		c.MinSamples = 16
	}
	if c.Cooldown == 0 {
		c.Cooldown = 200_000
	}
	return c
}

// EjectionRow is one backend's ejection accounting for the report.
type EjectionRow struct {
	Ejections    int    `json:"ejections"`
	LastCause    string `json:"last_cause,omitempty"` // "error_rate" or "dilation"
	ErrEWMA      int    `json:"err_ewma_permille"`
	DilationEWMA int    `json:"dilation_ewma_permille"`
}

// backendHealth is one backend's rolling view.
type backendHealth struct {
	errEwma int // permille
	dilEwma int // permille, seeded at 1000 (= no dilation)
	samples int
	until   uint64 // ejected while now < until
	row     EjectionRow
}

// Ejector tracks per-backend gray-failure signals and decides
// ejection. Serial-replay only: it is plain state driven by the DES.
type Ejector struct {
	cfg OutlierConfig
	bk  []backendHealth

	// onEject, when non-nil, observes each ejection (telemetry hook).
	onEject func(bk int, now uint64, cause string)
}

// NewEjector builds an ejector for n backends.
func NewEjector(n int, cfg OutlierConfig, onEject func(bk int, now uint64, cause string)) *Ejector {
	e := &Ejector{cfg: cfg.withDefaults(), bk: make([]backendHealth, n), onEject: onEject}
	for i := range e.bk {
		e.bk[i].dilEwma = 1000
	}
	return e
}

// Ejected reports whether backend idx is currently out of the
// candidate set. A nil ejector never ejects.
func (e *Ejector) Ejected(idx int, now uint64) bool {
	if e == nil {
		return false
	}
	return now < e.bk[idx].until
}

// ewma folds a sample in with weight alphaNum/alphaDen.
func ewma(old, sample int) int {
	return (old*(alphaDen-alphaNum) + sample*alphaNum) / alphaDen
}

// Observe records one finished attempt against backend idx: failed
// says whether the attempt was lost to the network (timeout / drop),
// dilPermille is observed/intrinsic latency in permille (ignored when
// failed — a lost message has no latency sample). Crossing a
// threshold with enough samples ejects the backend for the cooldown
// and resets its view, so reinstatement starts from a clean slate.
func (e *Ejector) Observe(idx int, now uint64, failed bool, dilPermille int) {
	if e == nil {
		return
	}
	h := &e.bk[idx]
	if now < h.until {
		return // already out; its in-flight stragglers don't re-eject
	}
	errSample := 0
	if failed {
		errSample = 1000
	} else {
		h.dilEwma = ewma(h.dilEwma, dilPermille)
	}
	h.errEwma = ewma(h.errEwma, errSample)
	h.samples++
	h.row.ErrEWMA = h.errEwma
	h.row.DilationEWMA = h.dilEwma
	if h.samples < e.cfg.MinSamples {
		return
	}
	cause := ""
	switch {
	case h.errEwma > errPermille:
		cause = "error_rate"
	case h.dilEwma > dilationPermille:
		cause = "dilation"
	default:
		return
	}
	h.until = now + e.cfg.Cooldown
	h.errEwma, h.dilEwma, h.samples = 0, 1000, 0
	h.row.Ejections++
	h.row.LastCause = cause
	if e.onEject != nil {
		e.onEject(idx, now, cause)
	}
}

// Row returns backend idx's accounting.
func (e *Ejector) Row(idx int) EjectionRow {
	if e == nil {
		return EjectionRow{}
	}
	return e.bk[idx].row
}

// Ejections totals ejections across the fleet.
func (e *Ejector) Ejections() int {
	if e == nil {
		return 0
	}
	n := 0
	for i := range e.bk {
		n += e.bk[i].row.Ejections
	}
	return n
}
