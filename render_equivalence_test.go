// Rendering acceptance test: Render over a raw artifact and over its
// explicit Figure wrapper must produce byte-identical output for every
// figure and format, equal to the report encoder the removed facade
// Write* helpers wrapped — so migrating a Write* call to Render never
// changes a byte.
package coevo_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"coevo"
	"coevo/internal/corpus"
	"coevo/internal/report"
)

// renderDataset builds a reduced corpus dataset for render comparisons.
func renderDataset(t *testing.T) *coevo.Dataset {
	t.Helper()
	cfg := coevo.DefaultCorpusConfig(31)
	profiles := corpus.DefaultProfiles()
	for i := range profiles {
		profiles[i].Count = 2
		if profiles[i].DurationMonths[1] > 30 {
			profiles[i].DurationMonths[1] = 30
		}
	}
	cfg.Profiles = profiles
	projects, err := coevo.GenerateCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := coevo.AnalyzeCorpus(projects, coevo.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRenderMatchesDeprecatedWriters pins the migration table in
// ExampleRender: each case's encoder is what the former coevo.Write*
// helper of that figure and format produced, and both Render routes must
// reproduce it.
func TestRenderMatchesDeprecatedWriters(t *testing.T) {
	d := renderDataset(t)
	stats, err := d.Statistics(1)
	if err != nil {
		t.Fatal(err)
	}
	joint := d.Projects[0].Joint
	hist := d.SynchronicityHistogram(0.10, 5)
	scatter := d.DurationSynchronicityScatter()
	table := d.AdvanceBreakdown()
	always := d.AlwaysAdvance()
	attain := d.Attainment()

	cases := []struct {
		name     string
		format   coevo.Format
		encoder  func(io.Writer) error // the report encoder for this figure and format
		artifact any                   // raw artifact Render wraps itself
		figure   coevo.Figure          // explicit Figure wrapper
	}{
		{"joint/text", coevo.Text,
			func(w io.Writer) error { return report.WriteJointProgress(w, "demo", joint) },
			coevo.JointProgressFigure{Title: "demo", Progress: joint},
			coevo.JointProgressFigure{Title: "demo", Progress: joint}},
		{"joint/svg", coevo.SVG,
			func(w io.Writer) error { return report.WriteJointProgressSVG(w, "demo", joint) },
			coevo.JointProgressFigure{Title: "demo", Progress: joint},
			coevo.JointProgressFigure{Title: "demo", Progress: joint}},
		{"histogram/text", coevo.Text,
			func(w io.Writer) error { return report.WriteSyncHistogram(w, hist) },
			hist, coevo.SyncHistogramFigure{Histogram: hist}},
		{"histogram/svg", coevo.SVG,
			func(w io.Writer) error { return report.WriteSyncHistogramSVG(w, hist) },
			hist, coevo.SyncHistogramFigure{Histogram: hist}},
		{"scatter/text", coevo.Text,
			func(w io.Writer) error { return report.WriteScatter(w, scatter) },
			scatter, coevo.ScatterFigure{Points: scatter}},
		{"scatter/svg", coevo.SVG,
			func(w io.Writer) error { return report.WriteScatterSVG(w, scatter) },
			scatter, coevo.ScatterFigure{Points: scatter}},
		{"advance/text", coevo.Text,
			func(w io.Writer) error { return report.WriteAdvanceTable(w, table) },
			table, coevo.AdvanceTableFigure{Table: table}},
		{"always/text", coevo.Text,
			func(w io.Writer) error { return report.WriteAlwaysAdvance(w, always) },
			always, coevo.AlwaysAdvanceFigure{Summary: always}},
		{"attainment/text", coevo.Text,
			func(w io.Writer) error { return report.WriteAttainment(w, attain) },
			attain, coevo.AttainmentFigure{Breakdown: attain}},
		{"stats/text", coevo.Text,
			func(w io.Writer) error { return report.WriteStatsReport(w, stats) },
			stats, coevo.StatsFigure{Report: stats}},
		{"dataset/csv", coevo.CSV,
			func(w io.Writer) error { return report.WriteDatasetCSV(w, d) },
			d, coevo.DatasetFigure{Dataset: d}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var encoded, viaRaw, viaFigure bytes.Buffer
			if err := tc.encoder(&encoded); err != nil {
				t.Fatalf("encoder: %v", err)
			}
			if err := coevo.Render(&viaRaw, tc.artifact, tc.format); err != nil {
				t.Fatalf("Render(raw artifact): %v", err)
			}
			if err := coevo.Render(&viaFigure, tc.figure, tc.format); err != nil {
				t.Fatalf("Render(figure): %v", err)
			}
			if encoded.Len() == 0 {
				t.Fatal("empty rendering")
			}
			if !bytes.Equal(encoded.Bytes(), viaRaw.Bytes()) {
				t.Error("Render over the raw artifact differs from the encoder")
			}
			if !bytes.Equal(encoded.Bytes(), viaFigure.Bytes()) {
				t.Error("Render over the explicit figure differs from the encoder")
			}
		})
	}
}

func TestRenderUnsupportedFormat(t *testing.T) {
	d := renderDataset(t)
	unsupported := []struct {
		name     string
		artifact any
		format   coevo.Format
	}{
		{"advance/svg", d.AdvanceBreakdown(), coevo.SVG},
		{"always/csv", d.AlwaysAdvance(), coevo.CSV},
		{"attainment/svg", d.Attainment(), coevo.SVG},
		{"dataset/text", d, coevo.Text},
		{"histogram/csv", d.SynchronicityHistogram(0.10, 5), coevo.CSV},
		{"joint/csv", coevo.JointProgressFigure{Progress: d.Projects[0].Joint}, coevo.CSV},
	}
	for _, tc := range unsupported {
		t.Run(tc.name, func(t *testing.T) {
			err := coevo.Render(io.Discard, tc.artifact, tc.format)
			if !errors.Is(err, coevo.ErrUnsupportedFormat) {
				t.Errorf("want ErrUnsupportedFormat, got %v", err)
			}
		})
	}

	// An artifact with no figure encoding at all is a plain error, not an
	// unsupported format.
	err := coevo.Render(io.Discard, 42, coevo.Text)
	if err == nil || errors.Is(err, coevo.ErrUnsupportedFormat) {
		t.Errorf("unknown artifact: got %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), "no figure encoding") {
		t.Errorf("unknown artifact error unhelpful: %v", err)
	}
}
