// Command tunerd-client is the CLI counterpart of the tunerd server.
// It speaks the versioned wire format of internal/api and renders
// responses with the same text renderers cmd/debugtuner and
// cmd/experiments use, so tuning a program over HTTP prints the same
// tables the batch tools do.
//
// Usage:
//
//	tunerd-client -addr host:port <command> [flags] [file.mc ...]
//
// Commands:
//
//	tune    -profile gcc -level O2 [-dy 3,5,7,9] [-top N] [-raw] files...
//	pareto  -profile gcc -level O2 [-dy 3,5,7,9] [-raw] files...
//	report  [-configs levels] [-raw] files...
//	metrics
//	quarantine
//	health
//
// -raw prints the server's response body verbatim (ci.sh compares these
// with the committed goldens under internal/serve/testdata).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"debugtuner/internal/api"
)

// errUsage marks command-line mistakes; main maps it to exit code 2,
// keeping the 0/1/2 exit contract in the one function allowed to exit.
var errUsage = errors.New("usage")

func main() {
	addr := flag.String("addr", "127.0.0.1:8347", "tunerd server address")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	c := api.NewClient(*addr)
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "tune":
		err = runTune(c, args)
	case "pareto":
		err = runPareto(c, args)
	case "report":
		err = runReport(c, args)
	case "metrics":
		var raw []byte
		if raw, err = c.Metrics(); err == nil {
			os.Stdout.Write(raw)
		}
	case "quarantine":
		var raw []byte
		if _, raw, err = c.Quarantine(); err == nil {
			os.Stdout.Write(raw)
		}
	case "health":
		if err = c.Healthz(); err == nil {
			fmt.Println("ok")
		}
	default:
		fmt.Fprintf(os.Stderr, "tunerd-client: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tunerd-client:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr,
		"usage: tunerd-client -addr host:port {tune|pareto|report|metrics|quarantine|health} [flags] [file.mc ...]")
}

// readUnits loads the positional .mc files as request units, named by
// their base filename.
func readUnits(paths []string) ([]api.Unit, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("%w: at least one .mc file is required", errUsage)
	}
	var units []api.Unit
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(p), ".mc")
		units = append(units, api.Unit{Name: name, Source: string(src)})
	}
	return units, nil
}

func parseDy(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var dys []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("%w: -dy: %v", errUsage, err)
		}
		dys = append(dys, n)
	}
	return dys, nil
}

func runTune(c *api.Client, args []string) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	profile := fs.String("profile", "gcc", "compiler profile")
	level := fs.String("level", "O2", "optimization level")
	dy := fs.String("dy", "", "Ox-dy sizes, comma separated (default server's)")
	top := fs.Int("top", 0, "ranking rows to print (0 = all)")
	raw := fs.Bool("raw", false, "print the raw response body")
	fs.Parse(args)
	dys, err := parseDy(*dy)
	if err != nil {
		return err
	}
	units, err := readUnits(fs.Args())
	if err != nil {
		return err
	}
	req := &api.TuneRequest{Profile: *profile, Level: *level, Dy: dys, Units: units}
	res, rawBody, err := c.Tune(req)
	if err != nil {
		return err
	}
	if *raw {
		os.Stdout.Write(rawBody)
		return nil
	}
	api.RenderTuneResult(os.Stdout, res, *top)
	return nil
}

func runPareto(c *api.Client, args []string) error {
	fs := flag.NewFlagSet("pareto", flag.ExitOnError)
	profile := fs.String("profile", "gcc", "compiler profile")
	level := fs.String("level", "O2", "optimization level")
	dy := fs.String("dy", "", "Ox-dy sizes, comma separated (default server's)")
	raw := fs.Bool("raw", false, "print the raw response body")
	fs.Parse(args)
	dys, err := parseDy(*dy)
	if err != nil {
		return err
	}
	units, err := readUnits(fs.Args())
	if err != nil {
		return err
	}
	req := &api.TuneRequest{Profile: *profile, Level: *level, Dy: dys, Units: units}
	res, rawBody, err := c.Pareto(req)
	if err != nil {
		return err
	}
	if *raw {
		os.Stdout.Write(rawBody)
		return nil
	}
	api.RenderPareto(os.Stdout, fmt.Sprintf(
		"Pareto (%s-%s) — product metric vs speedup over O0; * = Pareto-optimal",
		res.Profile, res.Level), res)
	return nil
}

func runReport(c *api.Client, args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	configs := fs.String("configs", "levels",
		"difftest matrix: full, levels, or a comma list like gcc-O2,clang-O3*")
	raw := fs.Bool("raw", false, "print the raw response body")
	fs.Parse(args)
	units, err := readUnits(fs.Args())
	if err != nil {
		return err
	}
	req := &api.ReportRequest{Configs: *configs, Units: units}
	res, rawBody, err := c.Report(req)
	if err != nil {
		return err
	}
	if *raw {
		os.Stdout.Write(rawBody)
		return nil
	}
	api.RenderDebugReport(os.Stdout, res)
	return nil
}
