package core

import "cloudwatch/internal/obs"

// Package-level observability handles, resolved once. Counting happens
// at run/epoch granularity — one atomic add per generator pass or
// verdict flip, never per record — so the generation hot path pays
// nothing.
var (
	// mRecordsGenerated counts honeypot records produced by every
	// generator pass of this process (Run and GenerateEpochs).
	mRecordsGenerated = obs.Default().Counter("core_records_generated_total",
		"Honeypot records produced by generation (batch and epoch-partitioned).")
	// mVerdictRepairs counts Advance calls in which a moved anchor
	// flipped an already-judged payload's §3.2 verdict.
	mVerdictRepairs = obs.Default().Counter("core_verdict_repairs_total",
		"Incremental-assembly Advance calls in which a moved anchor flipped a §3.2 verdict.")
)
