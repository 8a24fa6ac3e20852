// Fullstudy regenerates the paper's entire evaluation in one run: the
// 195-project corpus, Figures 4 through 8, and the Section 7 statistics,
// all through the public API.
//
// Run with:
//
//	go run ./examples/fullstudy [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"coevo"
)

func main() {
	seed := flag.Int64("seed", 2023, "corpus seed")
	flag.Parse()

	dataset, err := coevo.RunStudy(*seed)
	if err != nil {
		log.Fatalf("study: %v", err)
	}
	fmt.Printf("analyzed %d projects (seed %d)\n\n", dataset.Size(), *seed)

	must := func(err error) {
		if err != nil {
			log.Fatalf("render: %v", err)
		}
	}
	must(coevo.Render(os.Stdout, dataset.SynchronicityHistogram(0.10, 5), coevo.Text))
	fmt.Println()

	must(coevo.Render(os.Stdout, dataset.DurationSynchronicityScatter(), coevo.Text))
	in, out := dataset.LongProjectSyncBand(60, 0.2, 0.8)
	fmt.Printf("projects over 60 months: %d inside the (0.2, 0.8) band, %d outside\n\n", in, out)

	must(coevo.Render(os.Stdout, dataset.AdvanceBreakdown(), coevo.Text))
	fmt.Println()

	must(coevo.Render(os.Stdout, dataset.AlwaysAdvance(), coevo.Text))
	fmt.Println()

	must(coevo.Render(os.Stdout, dataset.Attainment(), coevo.Text))
	fmt.Println()

	stats, err := dataset.Statistics(*seed)
	if err != nil {
		log.Fatalf("statistics: %v", err)
	}
	must(coevo.Render(os.Stdout, stats, coevo.Text))
}
