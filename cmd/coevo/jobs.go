package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"coevo/internal/jobs"
	"coevo/internal/obs"
)

// runJobs is the client side of the job service: submit work to a
// running `coevo serve`, watch it, fetch its rendered result.
func runJobs(ctx context.Context, args []string) error {
	fs := newFlagSet("jobs")
	server := fs.String("server", "http://127.0.0.1:8080", "base URL of the coevo serve instance")
	tenant := fs.String("tenant", "", "tenant identity sent as X-Coevo-Tenant (default: the server's \"anonymous\")")
	jsonOut := fs.Bool("json", false, "print raw JSON documents instead of the human summary")
	seed := fs.Int64("seed", 2023, "study submission: corpus generation seed")
	perTaxon := fs.Int("per-taxon", 0, "study submission: per-taxon project count override (0 = the paper's corpus)")
	csv := fs.Bool("csv", false, "study submission: include the per-project CSV data set in the result")
	dialect := dialectFlag(fs)
	specPath := fs.String("spec", "", "submit this spec file (JSON) instead of building a study spec from flags")
	wait := fs.Bool("wait", false, "after submitting, block until the job reaches a terminal state")
	outDir := fs.String("out", "", "result: write each section to a file in this directory instead of stdout")
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, `usage: coevo jobs [flags] <operation>

operations:
  submit               submit a job (a study built from -seed/-per-taxon/-csv,
                       or the spec file named by -spec)
  status <id>          print one job's status
  result <id>          fetch a finished job's rendered sections
  cancel <id>          request cancellation
  wait <id>            block until the job reaches a terminal state
  flight <id>          fetch a failed job's flight-recorder dump
  list                 list jobs (all tenants; -tenant filters)

flags:
`)
		fs.PrintDefaults()
	}
	if ok, err := parseFlags(fs, args); !ok {
		return err
	}
	cl := &jobClient{base: strings.TrimRight(*server, "/") + obs.APIPrefix, tenant: *tenant}
	op, id := fs.Arg(0), fs.Arg(1)
	needID := func() error {
		if id == "" {
			return fmt.Errorf("jobs: %s needs a job id", op)
		}
		return nil
	}
	switch op {
	case "submit":
		spec, err := buildSpec(*specPath, *seed, *perTaxon, *csv, *dialect)
		if err != nil {
			return err
		}
		j, err := cl.submit(ctx, spec)
		if err != nil {
			return err
		}
		if !*wait {
			return printJob(j, *jsonOut)
		}
		if j, err = cl.wait(ctx, j.ID); err != nil {
			return err
		}
		return printJob(j, *jsonOut)
	case "status":
		if err := needID(); err != nil {
			return err
		}
		j, err := cl.job(ctx, id)
		if err != nil {
			return err
		}
		return printJob(j, *jsonOut)
	case "result":
		if err := needID(); err != nil {
			return err
		}
		var res jobs.Result
		if err := cl.get(ctx, "/jobs/"+id+"/result", &res); err != nil {
			return err
		}
		return printResult(&res, *outDir, *jsonOut)
	case "cancel":
		if err := needID(); err != nil {
			return err
		}
		var j jobs.Job
		if err := cl.do(ctx, http.MethodPost, "/jobs/"+id+"/cancel", nil, &j); err != nil {
			return err
		}
		return printJob(&j, *jsonOut)
	case "wait":
		if err := needID(); err != nil {
			return err
		}
		j, err := cl.wait(ctx, id)
		if err != nil {
			return err
		}
		return printJob(j, *jsonOut)
	case "flight":
		if err := needID(); err != nil {
			return err
		}
		var d jobs.FlightDump
		if err := cl.get(ctx, "/jobs/"+id+"/flight", &d); err != nil {
			return err
		}
		return printFlight(&d, *jsonOut)
	case "list":
		path := "/jobs"
		if *tenant != "" {
			path += "?tenant=" + *tenant
		}
		var list []*jobs.Job
		if err := cl.get(ctx, path, &list); err != nil {
			return err
		}
		return printJobList(list, *jsonOut)
	case "":
		fs.Usage()
		return fmt.Errorf("jobs: missing operation (submit, status, result, cancel, wait, flight or list)")
	default:
		return fmt.Errorf("jobs: unknown operation %q (want submit, status, result, cancel, wait, flight or list)", op)
	}
}

// buildSpec assembles the submission: a spec file (with -dialect as an
// override of the payload's dialect), or a study spec from the flags.
func buildSpec(specPath string, seed int64, perTaxon int, csv bool, dialect string) (*jobs.Spec, error) {
	if _, err := resolveDialect(dialect); err != nil {
		return nil, err
	}
	if specPath != "" {
		raw, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		var spec jobs.Spec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return nil, fmt.Errorf("jobs: %s: %w", specPath, err)
		}
		if dialect != "" {
			switch {
			case spec.Study != nil:
				spec.Study.Dialect = dialect
			case spec.Ingest != nil:
				spec.Ingest.Dialect = dialect
			}
		}
		return &spec, nil
	}
	return &jobs.Spec{
		Kind:  jobs.KindStudy,
		Study: &jobs.StudySpec{Seed: seed, PerTaxon: perTaxon, CSV: csv, Dialect: dialect},
	}, nil
}

// jobClient talks to the /api/v1/jobs API; base includes the prefix.
type jobClient struct {
	base   string
	tenant string
}

// do issues one request and decodes the JSON response into out. A
// non-2xx response becomes an error carrying the server's message.
func (c *jobClient) do(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tenant != "" {
		req.Header.Set("X-Coevo-Tenant", c.tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("jobs: %s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *jobClient) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

func (c *jobClient) job(ctx context.Context, id string) (*jobs.Job, error) {
	var j jobs.Job
	if err := c.get(ctx, "/jobs/"+id, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

func (c *jobClient) submit(ctx context.Context, spec *jobs.Spec) (*jobs.Job, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var j jobs.Job
	if err := c.do(ctx, http.MethodPost, "/jobs", bytes.NewReader(raw), &j); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "submitted %s (%s)\n", j.ID, j.Spec.Label())
	return &j, nil
}

// wait polls the job until it reaches a terminal state.
func (c *jobClient) wait(ctx context.Context, id string) (*jobs.Job, error) {
	for {
		j, err := c.job(ctx, id)
		if err != nil {
			return nil, err
		}
		if j.State.Terminal() {
			return j, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(300 * time.Millisecond):
		}
	}
}

// printJob renders one status document.
func printJob(j *jobs.Job, jsonOut bool) error {
	if jsonOut {
		return writeIndentedJSON(os.Stdout, j)
	}
	fmt.Printf("job       %s\n", j.ID)
	fmt.Printf("tenant    %s\n", j.Tenant)
	fmt.Printf("spec      %s (fingerprint %.12s)\n", j.Spec.Label(), j.Fingerprint)
	fmt.Printf("state     %s\n", j.State)
	if j.Total > 0 {
		fmt.Printf("progress  %d/%d projects\n", j.Done, j.Total)
	}
	if j.CacheHit {
		fmt.Printf("dedup     served from the shared result cache\n")
	}
	if j.RunID != "" {
		fmt.Printf("run       %s (coevo runs show %s)\n", j.RunID, j.RunID)
	}
	if j.Error != "" {
		fmt.Printf("error     %s\n", j.Error)
	}
	return nil
}

// printFlight renders a failed job's black-box dump: the job's final
// diagnostics, then the correlated event slice in sequence order.
func printFlight(d *jobs.FlightDump, jsonOut bool) error {
	if jsonOut {
		return writeIndentedJSON(os.Stdout, d)
	}
	fmt.Printf("flight    %s\n", d.JobID)
	if d.TraceID != "" {
		fmt.Printf("trace     %s\n", d.TraceID)
	}
	fmt.Printf("dumped    %s\n", d.DumpedAt.Format(time.RFC3339))
	if j := d.Job; j != nil {
		fmt.Printf("state     %s\n", j.State)
		if j.Error != "" {
			fmt.Printf("error     %s\n", j.Error)
		}
	}
	fmt.Printf("events    %d correlated\n", len(d.Events))
	for _, e := range d.Events {
		detail := e.Detail
		if i := strings.IndexByte(detail, '\n'); i >= 0 {
			detail = detail[:i] + " ..."
		}
		fmt.Printf("  %6d %s %s/%s %s %s\n",
			e.Seq, e.When.Format("15:04:05.000"), e.Source, e.Kind, e.Name, detail)
	}
	return nil
}

// printJobList renders the listing.
func printJobList(list []*jobs.Job, jsonOut bool) error {
	if jsonOut {
		return writeIndentedJSON(os.Stdout, list)
	}
	if len(list) == 0 {
		fmt.Println("no jobs")
		return nil
	}
	fmt.Printf("%-28s %-12s %-10s %-8s %s\n", "ID", "TENANT", "STATE", "KIND", "SUBMITTED")
	for _, j := range list {
		fmt.Printf("%-28s %-12s %-10s %-8s %s\n",
			j.ID, j.Tenant, j.State, j.Spec.Kind, j.Submitted.Format(time.RFC3339))
	}
	return nil
}

// printResult writes the fetched sections: into outDir as one file per
// section, or to stdout (text sections only, SVG and CSV skipped).
func printResult(res *jobs.Result, outDir string, jsonOut bool) error {
	if jsonOut {
		return writeIndentedJSON(os.Stdout, res)
	}
	if outDir != "" {
		names := sectionNames(res)
		for _, name := range names {
			path := filepath.Join(outDir, name)
			if err := writeFile(path, func(w io.Writer) error {
				_, err := io.WriteString(w, res.Sections[name])
				return err
			}); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %d sections of %s to %s\n", len(names), res.JobID, outDir)
		return nil
	}
	for _, name := range sectionNames(res) {
		if strings.HasSuffix(name, ".svg") || strings.HasSuffix(name, ".csv") {
			continue
		}
		fmt.Print(res.Sections[name])
		fmt.Println()
	}
	return nil
}

// sectionNames lists a result's sections deterministically.
func sectionNames(res *jobs.Result) []string {
	names := make([]string, 0, len(res.Sections))
	for name := range res.Sections {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// writeIndentedJSON renders v as indented JSON — the -json output shape
// shared by `jobs status|list|result` and `runs list`.
func writeIndentedJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
