// Scenarios: the same measurement platform pointed at different
// adversarial worlds. The scenario registry makes the actor population
// a first-class axis: this example enumerates the registered packs,
// runs the identical deployment under each, and compares what the
// paper's headline instruments see — how a finding measured under the
// baseline week would shift if the attacker mix changed.
package main

import (
	"fmt"
	"log"

	"cloudwatch"
	"cloudwatch/internal/core"
)

func main() {
	fmt.Println("registered scenario packs:")
	for _, id := range cloudwatch.Scenarios() {
		fmt.Printf("  %-16s %s\n", id, cloudwatch.ScenarioDescription(id))
	}
	fmt.Println()

	// One quick study per scenario: same seed, same deployment, same
	// week — only the population builder differs, so every delta below
	// is attributable to the adversarial mix.
	fmt.Printf("%-16s %7s %9s %14s %12s %12s\n",
		"scenario", "actors", "records", "telescope-pkts", "ssh-as-diff", "p23-overlap")
	for _, id := range cloudwatch.Scenarios() {
		cfg := cloudwatch.QuickStudy(42, 2021)
		cfg.Scenario = id
		study, err := cloudwatch.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}

		// Table 2's headline: fraction of SSH/22 neighborhoods whose
		// top ASes differ (the paper's 28% discrimination finding).
		var sshASDiff float64
		for _, cell := range study.Table2().Cells {
			if cell.Slice == core.SliceSSH22 && cell.Characteristic == core.CharTopAS {
				sshASDiff = cell.FractionDifferent
			}
		}
		// Table 8's headline: how much of the cloud-visible port 23
		// population the telescope also sees (the avoidance finding —
		// stealthy actors shrink it, indiscriminate floods restore it).
		var p23Overlap float64
		for _, row := range study.Table8().Rows {
			if row.Port == 23 {
				p23Overlap = row.TelCloudFrac
			}
		}
		fmt.Printf("%-16s %7d %9d %14d %11.1f%% %11.1f%%\n",
			id, len(study.Actors), study.NumRecords(), study.Tel.Packets(),
			100*sshASDiff, 100*p23Overlap)
	}

	// The scenario is part of a study's identity end to end: a durable
	// store written under one pack refuses to serve another, and the
	// sweep server tags every cell with the world it came from. See the
	// streamstudy example and README "Scenario packs" for that half.
	fmt.Println("\n(scenario ids thread through -scenario, /v1/sweep, and the durable store)")
}
