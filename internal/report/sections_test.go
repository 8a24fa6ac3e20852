package report

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"coevo/internal/corpus"
	"coevo/internal/study"
)

// TestEveryFiguresAccumulatorIsRendered: every aggregate study.Figures
// folds reaches a study section. For each exported field, an empty
// accumulator from NewFigures in its place must change the bytes of
// StudySections or make a section fail; a field whose replacement
// changes nothing is folded by every run, shard partial and merge for
// no reader.
func TestEveryFiguresAccumulatorIsRendered(t *testing.T) {
	const seed = 2023
	cfg := corpus.DefaultConfig(seed)
	for i := range cfg.Profiles {
		cfg.Profiles[i].Count = 2
	}
	figs := study.NewFigures()
	sum, err := study.StreamCorpus(context.Background(), corpus.NewSource(cfg), figs, study.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Projects != 12 || len(sum.Failures) != 0 {
		t.Fatalf("analyzed %d projects with %d failures, want 12 and 0", sum.Projects, len(sum.Failures))
	}

	// Every accumulator holds data, so an empty one in its place shows.
	buckets := 0
	for _, n := range figs.Sync.Histogram().Buckets {
		buckets += n
	}
	in, out := figs.Band.Band()
	for name, n := range map[string]int{
		"Sync":       buckets,
		"Scatter":    len(figs.Scatter.Points()),
		"Advance":    figs.Advance.Table().Total,
		"Always":     figs.Always.Summary().Total,
		"Attainment": figs.Attainment.Breakdown().Total,
		"Health":     figs.Health.Summary().Projects,
	} {
		if n != 12 {
			t.Errorf("%s folded %d projects, want 12", name, n)
		}
	}
	if in != 2 || out != 0 {
		t.Errorf("band = %d in, %d out; want 2 in, 0 out", in, out)
	}
	if _, err := figs.Stats.Report(seed); err != nil {
		t.Errorf("Section 7 does not render: %v", err)
	}

	render := func(f *study.Figures) string {
		var b strings.Builder
		for _, s := range StudySections(FiguresArtifacts(f, seed)) {
			fmt.Fprintf(&b, "== %s\n", s.Name)
			if err := s.Write(&b); err != nil {
				fmt.Fprintf(&b, "section failed: %v\n", err)
			}
		}
		return b.String()
	}
	want := render(figs)
	if strings.Contains(want, "section failed: ") {
		t.Fatalf("a section fails on the full fold:\n%s", want)
	}
	fresh := reflect.ValueOf(study.NewFigures()).Elem()
	for i := 0; i < fresh.NumField(); i++ {
		field := fresh.Type().Field(i)
		if !field.IsExported() {
			continue
		}
		emptied := *figs
		reflect.ValueOf(&emptied).Elem().Field(i).Set(fresh.Field(i))
		if render(&emptied) == want {
			t.Errorf("Figures.%s: an empty accumulator renders the same sections; no section reads it", field.Name)
		}
	}
}
