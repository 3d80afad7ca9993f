// Command cubeql loads CSV records into an OLAP data cube (inferring a
// dimension per column: integer domains stay integer, everything else
// becomes ordered categories), precomputes the paper's range-query
// structures, and answers ad hoc range queries:
//
//	cubegen -rows 100000 > records.csv
//	cubeql -data records.csv -measure revenue 'sum age=37..52 year=1988..1996 type=auto'
//	cubeql -data records.csv -measure revenue 'max state=CA..TX' 'min age=20..30'
//	cubeql -data records.csv -measure revenue 'avg age=30..40' 'count type=auto'
//
// Each query prints the answer from the precomputed structure, the
// verifying naive scan, and both access counts — the paper's response-time
// proxy. Without a query argument it reads queries from stdin.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rangecube"
	"rangecube/internal/cube"
	"rangecube/internal/metrics"
	"rangecube/internal/naive"
)

func main() {
	data := flag.String("data", "", "CSV file with a header row")
	measure := flag.String("measure", "revenue", "name of the integer measure column")
	block := flag.Int("block", 10, "block size for the blocked prefix sum")
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "cubeql: -data is required (generate one with cubegen)")
		os.Exit(2)
	}
	f, err := os.Open(*data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cubeql: %v\n", err)
		os.Exit(1)
	}
	c, n, err := cube.InferCSV(f, *measure)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cubeql: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("loaded %d records into a %v cube (%d cells); dimensions:", n, c.Shape(), c.Data().Size())
	for i := 0; i < c.Dims(); i++ {
		fmt.Printf(" %s(%d)", c.Dimension(i).Name(), c.Dimension(i).Size())
	}
	fmt.Println()

	sum := rangecube.NewSumIndex(c.Data())
	blk := rangecube.NewBlockedSumIndex(c.Data(), *block)
	mx := rangecube.NewMaxIndex(c.Data(), 4)
	mn := rangecube.NewMinIndex(c.Data(), 4)
	avg := rangecube.NewAvgIndex(c.Data(), nil)

	runQuery := func(line string) {
		region, op, err := parse(c, line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return
		}
		var fast, scan metrics.Counter
		switch op {
		case "sum":
			got := sum.SumCounted(region, &fast)
			want := naive.SumInt64(c.Data(), region, &scan)
			var cb metrics.Counter
			blk.SumCounted(region, &cb)
			fmt.Printf("sum    = %-12d (prefix: %d accesses; blocked b=%d: %d; scan: %d; verify: %v)\n",
				got, fast.Total(), *block, cb.Total(), scan.Total(), got == want)
		case "max", "min":
			idx := mx
			if op == "min" {
				idx = mn
			}
			res := idx.MaxCounted(region, &fast)
			if !res.OK {
				fmt.Println(op, "   = (empty region)")
				return
			}
			fmt.Printf("%-6s = %-12d at %s (%d accesses vs %d cells)\n",
				op, res.Value, describe(c, res.Coords), fast.Total(), region.Volume())
		case "avg":
			a, count := avg.Average(region)
			fmt.Printf("avg    = %-12.2f over %d cells\n", a, count)
		case "count":
			fmt.Printf("count  = %-12d cells in range\n", region.Volume())
		default:
			fmt.Fprintf(os.Stderr, "error: unknown op %q (use sum, max, min, avg or count)\n", op)
		}
	}

	if flag.NArg() > 0 {
		for _, q := range flag.Args() {
			runQuery(q)
		}
		return
	}
	fmt.Println(`enter queries like "sum age=37..52 type=auto" (dim=*, dim=v, dim=lo..hi; ctrl-D to quit)`)
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			runQuery(line)
		}
	}
}

// parse turns "sum age=37..52 type=auto" into an op and a region.
func parse(c *cube.Cube, line string) (rangecube.Region, string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil, "", fmt.Errorf("empty query")
	}
	op := strings.ToLower(fields[0])
	var sels []rangecube.Selector
	for _, f := range fields[1:] {
		name, spec, ok := strings.Cut(f, "=")
		if !ok {
			return nil, "", fmt.Errorf("bad selector %q (want dim=value, dim=lo..hi or dim=*)", f)
		}
		lo, hi, isRange := strings.Cut(spec, "..")
		conv := func(s string) any {
			if v, err := strconv.Atoi(s); err == nil {
				return v
			}
			return s
		}
		switch {
		case isRange:
			sels = append(sels, rangecube.Between(name, conv(lo), conv(hi)))
		case spec == "*":
			sels = append(sels, rangecube.All(name))
		default:
			sels = append(sels, rangecube.Eq(name, conv(spec)))
		}
	}
	region, err := c.Region(sels...)
	return region, op, err
}

// describe renders coordinates as attribute values.
func describe(c *cube.Cube, coords []int) string {
	parts := make([]string, len(coords))
	for i, r := range coords {
		parts[i] = c.Dimension(i).Name() + "=" + c.Dimension(i).ValueAt(r)
	}
	return strings.Join(parts, " ")
}
