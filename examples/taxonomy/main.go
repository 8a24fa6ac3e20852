// Taxonomy generates the study corpus, classifies every project into the
// six schema-evolution taxa, and renders one Figure-3-style joint progress
// diagram per taxon — the exemplar views the paper uses to illustrate
// synchronous and out-of-sync co-evolution.
//
// Run with:
//
//	go run ./examples/taxonomy [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"coevo"
	"coevo/internal/taxa"
)

func main() {
	seed := flag.Int64("seed", 2023, "corpus seed")
	flag.Parse()

	projects, err := coevo.GenerateCorpus(coevo.DefaultCorpusConfig(*seed))
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	dataset, err := coevo.AnalyzeCorpus(projects, coevo.DefaultOptions())
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}

	// Distribution of measured taxa (vs the generator's intent).
	fmt.Println("taxon distribution (measured, with generator intent in parentheses):")
	measured := map[taxa.Taxon]int{}
	intended := map[taxa.Taxon]int{}
	for _, p := range dataset.Projects {
		measured[p.Taxon]++
		if p.IntendedTaxon != nil {
			intended[*p.IntendedTaxon]++
		}
	}
	for _, taxon := range taxa.All() {
		fmt.Printf("  %-24s %3d (%d intended)\n", taxon, measured[taxon], intended[taxon])
	}
	fmt.Println()

	// One exemplar per taxon: pick the project whose 10%-synchronicity is
	// the taxon's median, the most representative individual.
	for _, taxon := range taxa.All() {
		exemplar := medianProject(dataset, taxon)
		if exemplar == nil {
			continue
		}
		title := fmt.Sprintf("%s — %s (duration %d months, sync %.0f%%)",
			taxon, exemplar.Name, exemplar.DurationMonths, 100*exemplar.Measures.Sync10)
		if err := coevo.Render(os.Stdout, coevo.JointProgressFigure{Title: title, Progress: exemplar.Joint}, coevo.Text); err != nil {
			log.Fatalf("render: %v", err)
		}
		fmt.Println()
	}
}

// medianProject returns the project of the taxon with the median
// 10%-synchronicity.
func medianProject(d *coevo.Dataset, taxon taxa.Taxon) *coevo.ProjectResult {
	var members []*coevo.ProjectResult
	for _, p := range d.Projects {
		if p.Taxon == taxon {
			members = append(members, p)
		}
	}
	if len(members) == 0 {
		return nil
	}
	// Selection by rank, O(n²) is irrelevant at this scale.
	best := members[0]
	bestScore := -1
	for _, cand := range members {
		below := 0
		for _, other := range members {
			if other.Measures.Sync10 <= cand.Measures.Sync10 {
				below++
			}
		}
		// The median has ~half the members at or below it.
		score := len(members)/2 + 1 - abs(below-(len(members)/2+1))
		if score > bestScore {
			best, bestScore = cand, score
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
