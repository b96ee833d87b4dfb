// Command perfbench is the repository's end-to-end benchmark. It drives
// pacstack-serve, pacstack-soak and pacstack-cluster, built from the
// checkout it runs in, and checks every output: daemon responses
// against the single-step reference interpreter, soak runs against
// their own -check and against each other.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload serve-chain|serve-spec|soak-chaos \
//	                      --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics, measured by timing calls into each
// layer's exported functions from outside the program. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// # Workloads
//
// All three are closed loop. The serve workloads drive one daemon,
// started with its default flags and a loopback -addr, over two
// keep-alive connections; each caller waits for its reply.
//
//   - serve-chain: every request runs chain under pacstack with a fresh
//     request seed. A request is a 642-instruction victim, so per-request
//     fixed costs dominate.
//   - serve-spec: requests go round-robin over the 20 SPEC-shaped
//     programs plus nginx under all seven schemes (147 pairs). A request
//     is 0.4-0.65 M instructions, so the engine dominates.
//   - soak-chaos: rounds of one open-loop pacstack-soak burst run
//     (-traffic burst -adaptive, chaos, -heal 1, -checkpoint-every) and
//     one closed-loop pacstack-cluster run with chaos, heal and a
//     mid-run backend kill. Three seeded jobs, each run twice.
//
// A serve workload's timed phase is a fixed number of requests, sized
// to last about --seconds on a 2-core host, not a fixed time: two runs
// of one seed then send the same requests and count the same failures.
// Throughput, CPU per request and the latency percentiles are taken
// per one-second slice of the phase and reported as their median over
// the slices; the whole-phase percentiles, p99 with its sample count
// among them, are printed but not reported.
//
// # Correctness
//
// A 200 response is correct only if its output, exit code, instruction
// and cycle counts equal those of the same (program, scheme) run once
// on the single-step interpreter (cpu.SetBlockCompile(false)). A
// mismatching 200 or a silent_corruption reply makes the run
// incorrect; any other non-200 reply or transport error is a failed
// operation, counted by kind. The known failure is pool.Reset's 16-bit
// key probe refusing about one warm lease in 2^16, which the daemon
// answers with 500 panic; request seeds are never filtered, so runs
// count it. Soak rounds must pass -check, end every request in a
// terminal state, kill a backend mid-run, and each job's two rounds
// must produce byte-identical reports and telemetry dumps. A detected
// injected fault is the scheme working, not a failure; gave-up and
// abandoned requests are failures.
//
// Seed-determined values — response cycles and instructions, the PA,
// pool, kernel and event counters of the determinism window (the
// stream's first requests), failure counts, soak digests — are stored
// under .bench_build/determinism/<code id> on the first run of a seed,
// where the code id hashes the built CLIs and the benchmark binary, and
// must repeat exactly on every later run of the same code and seed.
//
// # Layers and what should move them
//
// The traced run (--trace 1) replays a sample of the workload's own
// requests through a replica of serve.(*Server).execute built from
// exported calls, with a span around each call into a layer, and times
// single layers on the same inputs. For soak-chaos the sample is the
// soak traffic model's request mix, and the soak rerun adds a CPU
// profile and telemetry dumps. Each metric names the end-to-end metric
// a change to its layer should move, and on which workload:
//
//	serve       request_us, codec_us, http_us    latency_p50, cpu_ms_per_req on serve-chain (flat on serve-spec)
//	resilience  admit_us                          sub-microsecond; guards regressions
//	pool        lease_us, reset_us, restores_per_req, key_violations
//	                                              cpu_ms_per_req, latency_p50 on serve-chain
//	snap        restore_us, commits_per_req       latency_p50 on serve-chain; throughput on soak-chaos
//	compile     boot_us, compile_ms               soak-chaos throughput; setup_s on serve-spec
//	kernel      seed_us, reseed_us, run_us, instrs_per_req
//	                                              seed/reseed: cpu_ms_per_req (serve-chain); run: throughput (serve-spec)
//	supervise   self_us, attempts_per_req         soak-chaos throughput
//	cpu         ns_per_instr.pa, ns_per_instr.nopa
//	                                              throughput, cpu_ms_per_req on serve-spec and soak-chaos
//	pa          pac_per_req, auth_per_req, memo_hit_ratio, auth_fail_per_req
//	                                              serve-spec throughput
//	qarma       encrypt_ns, us_per_req            throughput, cpu_ms_per_req on serve-spec and serve-chain
//	fault       classify_us, golden_ms, detected_per_req
//	                                              setup_s on serve-spec; soak-chaos throughput
//	telemetry   overhead_share, events_per_req, scrape_ms
//	                                              serve-spec throughput
//	gc          alloc_kb_per_req, cpu_share, cycles_per_1k_req
//	                                              latency_p90, rss_mb on serve-chain
//	soak        serve_s, cluster_s, share.<module>
//	                                              soak-chaos throughput
//
// pa.auth_fail_per_req reads 1.0 on clean warm traffic: it is
// pool.Reset's deliberate probe of the image keys, which also writes
// one auth_fail event per request into the security ring. It is not an
// attack. The soak layer metrics are measured on every workload so
// every traced run reports one metric set; on the serve workloads a
// short standard soak round stands in, and they move only on
// soak-chaos. trace.overhead_share compares the traced replica with
// the untraced one; serve.unexplained_share is the share of in-process
// Server.Do time on the same requests that the untraced replica does
// not account for, and grows if the replica drifts from the server.
package main
