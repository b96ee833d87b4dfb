package serve

import (
	"sort"

	"pacstack/internal/compile"
	"pacstack/internal/fault"
	"pacstack/internal/kernel"
	"pacstack/internal/pa"
	"pacstack/internal/snap"
)

// FinalCheckpoint commits one boot-state snapshot per scheme the
// server has executed (sorted; pacstack when the server never ran
// anything) into st, and returns how many landed. It is the last act
// of a graceful shutdown: per-request snapshot stores die with their
// requests, so the durable record a drained daemon leaves behind is a
// set of chain-neutral images the next incarnation — or a migration
// target — can restore and re-seed safely (kernel.Process.ReseedKeys).
// The commits run on fresh kernels seeded from the server seed; they
// do not touch serving state and are safe after Drain.
func (s *Server) FinalCheckpoint(st *snap.Store) (int, error) {
	s.mu.Lock()
	schemes := make([]compile.Scheme, 0, len(s.ktels))
	for sc := range s.ktels {
		schemes = append(schemes, sc)
	}
	s.mu.Unlock()
	if len(schemes) == 0 {
		schemes = []compile.Scheme{compile.SchemePACStack}
	}
	sort.Slice(schemes, func(i, j int) bool { return schemes[i] < schemes[j] })

	eng, err := s.engine("chain")
	if err != nil {
		return 0, err
	}
	n := 0
	for _, sc := range schemes {
		img, err := eng.Image(sc)
		if err != nil {
			return n, err
		}
		k := kernel.New(pa.DefaultConfig())
		k.Seed(Mix(s.cfg.Seed, 0xf1a1+int64(sc)))
		p, err := img.Boot(k)
		if err != nil {
			return n, err
		}
		fault.Harden(sc, p)
		if _, err := st.CommitProcess(p); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
