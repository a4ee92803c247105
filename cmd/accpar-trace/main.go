// Command accpar-trace inspects the trace-level substrate: it dumps the
// tensor access and MULT/ADD traces of a layer under a chosen partition
// type (the paper's Section 6.1 methodology) as CSV, renders the
// simulator's task timeline for a whole model as CSV or a text Gantt
// chart, or pretty-prints a flight-recorder capture saved from a serving
// process's GET /debug/slowest/{id} endpoint (span tree + search-audit
// one-liners).
//
// Usage:
//
//	accpar-trace -model alexnet -layer cv1 -type II -alpha 0.5
//	accpar-trace -model lenet -timeline -gantt
//	curl -s localhost:8080/debug/slowest/r12 | accpar-trace -capture -
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"accpar/internal/cost"
	"accpar/internal/models"
	"accpar/internal/obs"
	"accpar/internal/sim"
	"accpar/internal/trace"
)

func main() {
	var (
		model    = flag.String("model", "alexnet", "model name: "+strings.Join(models.Names(), ", "))
		batch    = flag.Int("batch", 64, "mini-batch size")
		layer    = flag.String("layer", "", "weighted layer to trace (empty = all layers)")
		typeName = flag.String("type", "I", "partition type: I, II or III")
		alpha    = flag.Float64("alpha", 0.5, "partitioning ratio of the traced accelerator")
		timeline = flag.Bool("timeline", false, "simulate the whole model and dump the task timeline CSV")
		gantt    = flag.Bool("gantt", false, "render a text Gantt chart instead of CSV (with -timeline)")
		capture  = flag.String("capture", "", "pretty-print a /debug/slowest capture document from this file ('-' for stdin): span tree + search-audit one-liners")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("accpar-trace"))
		return
	}
	if *capture != "" {
		if err := runCapture(*capture, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "accpar-trace:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*model, *batch, *layer, *typeName, *alpha, *timeline, *gantt); err != nil {
		fmt.Fprintln(os.Stderr, "accpar-trace:", err)
		os.Exit(1)
	}
}

func run(model string, batch int, layer, typeName string, alpha float64, timeline, gantt bool) error {
	net, err := models.BuildNetwork(model, batch)
	if err != nil {
		return err
	}

	if timeline {
		types := make([]cost.Type, net.NumUnits())
		ty, err := parseType(typeName)
		if err != nil {
			return err
		}
		for i := range types {
			types[i] = ty
		}
		machines := [2]sim.Machine{
			{Name: "a", Compute: 180e12, MemBW: 2400e9, NetBW: 1e9, HBMBytes: 64 << 30},
			{Name: "b", Compute: 420e12, MemBW: 4800e9, NetBW: 2e9, HBMBytes: 128 << 30},
		}
		res, err := sim.Simulate(sim.Split{Net: net, Types: types, Alpha: alpha}, machines, sim.Config{RecordTimeline: true})
		if err != nil {
			return err
		}
		if gantt {
			fmt.Print(res.Gantt(100))
			return nil
		}
		return res.WriteTimelineCSV(os.Stdout)
	}

	ty, err := parseType(typeName)
	if err != nil {
		return err
	}
	traced := 0
	for _, u := range net.Units() {
		if u.Virtual {
			continue
		}
		if layer != "" && u.Name != layer {
			continue
		}
		a := trace.Assignment{Dims: u.Dims, Type: ty}
		a.Share = trace.SplitShare(a.PartitionedTotal(), alpha)
		tr, err := trace.Generate(a)
		if err != nil {
			return err
		}
		fmt.Printf("# layer %s  dims %+v  type %v  share %d/%d\n", u.Name, u.Dims, ty, a.Share, a.PartitionedTotal())
		if err := tr.WriteCSV(os.Stdout); err != nil {
			return err
		}
		traced++
	}
	if traced == 0 {
		return fmt.Errorf("no weighted layer %q in %s", layer, model)
	}
	return nil
}

func parseType(s string) (cost.Type, error) {
	switch strings.ToUpper(s) {
	case "I", "1":
		return cost.TypeI, nil
	case "II", "2":
		return cost.TypeII, nil
	case "III", "3":
		return cost.TypeIII, nil
	default:
		return 0, fmt.Errorf("unknown partition type %q (want I, II or III)", s)
	}
}
