// Command perfbench is the repository's layered benchmark. It runs one
// named workload through the public functions of the five layers —
// the switchsim kernel, the core batch, the campaign shard pool and
// merge, the fmossimd job server and the distrib coordinator — times
// them from outside, checks every result against pinned or reference
// outcomes, and prints each metric by name with its unit, the last line
// being one JSON object.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ram256-seq1-stuck --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured untraced; --trace 1
// makes one traced run that reports the per-layer metrics and writes its
// spans to .bench_build/trace/. The workloads, the metrics and what each
// layer metric should move are described in README.md beside this file.
package main
