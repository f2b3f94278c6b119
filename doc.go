// Package orderopt implements Neumann & Moerkotte's framework for order
// optimization (ICDE 2004): reasoning about interesting orders during
// query optimization in O(1) time and O(1) space per plan node.
//
// During plan generation an optimizer asks two questions millions of
// times: does a subplan's tuple stream satisfy an ordering some operator
// wants (contains), and how does the set of satisfied logical orderings
// change when an operator introduces functional dependencies
// (inferNewLogicalOrderings)? The framework answers both with a single
// table lookup after a one-time preparation step that compiles the
// query's interesting orders and FD sets into a deterministic finite
// state machine whose states stand for sets of logical orderings. A plan
// node then carries one int32.
//
// Usage follows the paper's two phases: collect the preparation input
// (interesting orders, FD sets) into a Builder, Prepare the DFSM once,
// then drive plan generation with constant-time Produce / Infer /
// Contains lookups. The package Example is the runnable version of the
// paper's §5.6 walkthrough; planner.Planner's Examples show the same
// framework behind prepared statements that keep their plans, and
// server.Client's Example plans over HTTP (all run under go test).
//
// The machine tracks orderings only, as the paper does: a GROUP BY
// registers its column sequence as one produced interesting order, so a
// stream sorted on it groups without a sort. The authors' follow-up
// work on groupings (VLDB 2004) is not implemented; DESIGN.md says why.
//
// The subpackages build a complete test bed — and a service-shaped
// planning stack — around the framework:
//
//	internal/server      HTTP/JSON service over the planner and
//	                     executor: /plan, /explain, /execute, /stats,
//	                     /healthz, bounded admission with 429
//	                     shedding, per-request deadlines, resource
//	                     budgets, graceful drain that waits for
//	                     running pipelines
//	internal/planner     reentrant planning pipeline: a concurrent
//	                     prepared-statement cache, each statement
//	                     keeping its plan, pooled optimizer scratch
//	internal/optimizer   bottom-up DP plan generator, split into an
//	                     immutable Prepared and pooled per-run scratch;
//	                     pluggable order component, join enumeration
//	                     (DPccp csg-cmp pairs; the naive DPsub
//	                     reference is the tests' oracle) and planning
//	                     strategy (exact DP, GOO-linearized polynomial
//	                     DP for large join graphs, or auto)
//	internal/plan        physical operators, cost model, resettable
//	                     node arena, plan cloning
//	internal/query       join graph, §5.2 analysis, canonical
//	                     fingerprinting
//	internal/simmen      the Simmen/Shekita/Malkemus baseline (an
//	                     oracle for tests and the paper tables, not a
//	                     serving option)
//	internal/core        this framework (builder + prepared DFSM)
//	internal/{order,nfsm,dfsm,bitset}  framework internals
//	internal/sqlparse    SQL front end (parser + binder)
//	internal/exec        streaming executor: pipelined operators,
//	                     plan→pipeline compiler with per-operator
//	                     counters, query lifecycle (cancellation,
//	                     deadlines, row/memory budgets), dataset
//	                     registry; also the harness validating
//	                     ordering claims on real tuple streams
//	internal/freelist    process-wide free lists for recycled buffers,
//	                     shared by every P and aged by the collector
//	internal/faultinject fault-injection harness: operators made slow,
//	                     broken or hung on purpose, Open/Close leak
//	                     tracking, declarative failure scenarios
//	internal/{querygen,tpcr,catalog}   workloads: random join graphs
//	                     (chain/star/cycle/clique/grid) and TPC-R
//	internal/experiments §6.2/§7 tables, sweeps and the end-to-end
//	                     execution comparisons (exec, topk)
//	cmd/experiments      the paper's tables
//	cmd/planserverd      the planning + execution daemon (TPC-R schema)
//	benchmark/           the gated served benchmark (BENCHMARK.json; a
//	                     Go module of its own)
//
// README.md is the front door (quickstart for every binary); DESIGN.md
// documents the architecture — enumerator choice, DP table layout,
// node arena, the planner layer's caches and concurrency contract, the
// serving layer's request lifecycle, the execution tier — docs/api.md
// the HTTP API, docs/execution.md the executor, and docs/benchmarks.md
// how to run and compare the benchmarks.
package orderopt
