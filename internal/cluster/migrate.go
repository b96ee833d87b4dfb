package cluster

import (
	"fmt"

	"pacstack/internal/snap"
	"pacstack/internal/supervise"
)

// MachineMigration is the per-machine record of one failover: which
// image moved, how many bytes crossed the wire, and the two key
// verdicts the protocol must be able to prove afterwards — the keys
// were re-seeded, and the restored machine shares no keys with the
// dead incarnation.
type MachineMigration struct {
	Scheme  string `json:"scheme"`
	From    int    `json:"from"`
	To      int    `json:"to"`
	Bytes   int    `json:"bytes"`
	FromSeq uint64 `json:"from_seq"`
	ToSeq   uint64 `json:"to_seq"`
	// KeysReseeded records that ReseedKeys ran on the restored process.
	KeysReseeded bool `json:"keys_reseeded"`
	// SharedKeys is the post-reseed key comparison: true would mean the
	// migrated machine still holds the dead backend's keys — a
	// protocol violation the soak gate fails on.
	SharedKeys bool `json:"shared_keys"`
	// Repooled records that the survivor re-seeded its warm pool from
	// the shipped image: subsequent requests for this scheme restore
	// from the migrated machine's resealed snapshot (warm backends
	// only).
	Repooled bool `json:"repooled,omitempty"`
}

// MigrationReport is the full account of one backend failover's
// snapshot shipping.
type MigrationReport struct {
	From     int                `json:"from"`
	To       int                `json:"to"`
	Machines []MachineMigration `json:"machines"`
	Bytes    int                `json:"bytes"`
	// SharedKeyViolations counts machines whose restored incarnation
	// still shared keys with the dead one. Must be zero.
	SharedKeyViolations int `json:"shared_key_violations"`
}

// MigrateMachines ships every resident machine of the dead backend to
// the survivor. Per machine, in sorted scheme order:
//
//  1. Heal and recover the dead backend's store — the simulated disk
//     outlives the machine, exactly like the respawn path's storage.
//  2. Re-encode the recovered checkpoint canonically with the snap
//     codec: what crosses the wire is a self-checking image, not live
//     process state.
//  3. Commit the image into a fresh store owned by the survivor, then
//     restore it through the same verify-everything path a local
//     warm-restore uses (program CRC, image CRC, journal agreement).
//  4. Re-seed the restored process's PA keys (Section 4.3: a new
//     incarnation must not inherit its predecessor's keys) and verify
//     by comparing the two processes' keys that none survived.
//  5. Commit a fresh checkpoint under the new keys, so the survivor's
//     durable record never contains a restorable image keyed like the
//     dead backend.
//
// The report records every machine; any restore or commit error aborts
// the failover with the partial report attached.
func MigrateMachines(from, to *Backend) (*MigrationReport, error) {
	rep := &MigrationReport{From: from.Index, To: to.Index}
	for _, m := range from.Machines() {
		m.Store.Heal()
		cp, _, _, err := m.Store.Recover()
		if err != nil {
			return rep, fmt.Errorf("cluster: migrating %s off backend %d: recover: %w", m.Scheme, from.Index, err)
		}
		img, err := snap.Encode(cp, m.Img.Prog)
		if err != nil {
			return rep, fmt.Errorf("cluster: migrating %s off backend %d: encode: %w", m.Scheme, from.Index, err)
		}
		st := snap.NewStore(snap.NewMemFS())
		st.Tel = to.SnapTel
		if _, err := st.Commit(img); err != nil {
			return rep, fmt.Errorf("cluster: migrating %s to backend %d: commit: %w", m.Scheme, to.Index, err)
		}
		proc, _, err := snap.RestoreProcess(st, m.Img, to.Kernel)
		if err != nil {
			return rep, fmt.Errorf("cluster: migrating %s to backend %d: restore: %w", m.Scheme, to.Index, err)
		}
		proc.ReseedKeys()
		shared := supervise.SharedKeys(m.Proc, proc)
		toSeq, err := st.CommitProcess(proc)
		if err != nil {
			return rep, fmt.Errorf("cluster: migrating %s to backend %d: reseal: %w", m.Scheme, to.Index, err)
		}
		mm := MachineMigration{
			Scheme: m.Scheme, From: from.Index, To: to.Index,
			Bytes: len(img), FromSeq: m.Seq, ToSeq: toSeq,
			KeysReseeded: true, SharedKeys: shared,
		}
		if shared {
			rep.SharedKeyViolations++
		}
		// A warm survivor re-pools the cargo: the resealed process (new
		// keys, quiescent state) becomes the boot image its snapshot-fork
		// pool restores from, so post-failover traffic for this scheme is
		// served off the migrated state — and the pool's image-key check
		// now guards against the *shipped* image's keys leaking into
		// serving machines.
		if to.Srv != nil && to.Srv.Config().Warm {
			bi, err := snap.EncodeBootImage(proc, m.Img.Prog)
			if err != nil {
				return rep, fmt.Errorf("cluster: re-pooling %s on backend %d: encode: %w", m.Scheme, to.Index, err)
			}
			if err := to.Srv.AdoptBootImage("chain", m.Scheme, bi.Bytes()); err != nil {
				return rep, fmt.Errorf("cluster: re-pooling %s on backend %d: %w", m.Scheme, to.Index, err)
			}
			mm.Repooled = true
		}
		rep.Bytes += mm.Bytes
		rep.Machines = append(rep.Machines, mm)
		to.adopt(&Machine{
			Scheme: m.Scheme, Img: m.Img, Proc: proc,
			Store: st, Seq: toSeq, Migrated: true,
		})
	}
	return rep, nil
}
