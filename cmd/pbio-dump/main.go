// Command pbio-dump reads a PBIO stream (a file or stdin) and pretty-
// prints every record using only the meta-information carried in the
// stream itself — a direct demonstration of the paper's reflection
// support: a generic component operating on data "about which it has no
// a-priori knowledge".
//
// Usage:
//
//	pbio-dump [file]          # dump records (default: stdin)
//	pbio-dump -formats [file] # show only the format descriptions
//	pbio-dump -plan [file]    # show conversion plans + generated code
//	pbio-dump -gen [file]     # generate a demo stream INTO file first
//	pbio-dump -follow [file]  # keep reading as the stream grows (tail -f)
//
// Flight-recorder journals (format "pbio.flight.v1", as served at a
// daemon's /debug/flight or dumped on SIGQUIT) print symbolically: one
// line per event with the kind name instead of its raw enum value.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/abi"
	"repro/internal/convert"
	"repro/internal/dcg"
	"repro/internal/flightrec"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/pbio"
)

func main() {
	formatsOnly := flag.Bool("formats", false, "print only format descriptions")
	plan := flag.Bool("plan", false, "show the conversion plan and generated code per format")
	gen := flag.Bool("gen", false, "write a demo stream to the named file and exit")
	arch := flag.String("arch", "sparc-v8", "architecture for -gen, and the local native arch for -plan")
	follow := flag.Bool("follow", false, "do not stop at end of stream: poll for appended records (tail -f for PBIO)")
	flag.Parse()

	if *gen {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("-gen needs an output file"))
		}
		if err := generate(flag.Arg(0), *arch); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote demo stream to %s (%s layout)\n", flag.Arg(0), *arch)
		return
	}

	var in io.Reader = os.Stdin
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	if *plan {
		if err := dumpPlans(in, *arch); err != nil {
			fatal(err)
		}
		return
	}
	if *follow {
		in = &tailReader{r: in, every: 200 * time.Millisecond}
	}
	if err := dump(in, *formatsOnly); err != nil {
		fatal(err)
	}
}

// tailReader turns end-of-file into "wait for more": -follow mode keeps
// a dump attached to a journal another process is still appending to.
// It never returns io.EOF, so the dump loop runs until interrupted.
type tailReader struct {
	r     io.Reader
	every time.Duration
}

func (t *tailReader) Read(p []byte) (int, error) {
	for {
		n, err := t.r.Read(p)
		if n > 0 || err != io.EOF {
			return n, err
		}
		time.Sleep(t.every)
	}
}

// dumpPlans shows, for each format in the stream, the conversion PBIO
// would plan against the given local architecture and the virtual-RISC
// program the run-time code generator produces for it.
func dumpPlans(in io.Reader, archName string) error {
	local, err := abi.ByName(archName)
	if err != nil {
		return err
	}
	r := transport.NewReader(in)
	seen := map[string]bool{}
	for {
		m, err := r.ReadMessage()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fp := m.Format.Fingerprint()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		fmt.Print(m.Format.String())
		native, err := wire.Layout(m.Format.Schema(), &local)
		if err != nil {
			return err
		}
		p, err := convert.NewPlan(m.Format, native)
		if err != nil {
			return err
		}
		fmt.Println(p.String())
		prog, err := dcg.Compile(p)
		if err != nil {
			return err
		}
		if p.NoOp {
			fmt.Println("generated code: none (identical layouts, zero-copy receive)")
		} else {
			fmt.Printf("generated code (%d fused ops):\n%s", len(prog.Ops()), dcg.DisassembleBatch(prog.Ops()))
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pbio-dump:", err)
	os.Exit(1)
}

// dump reads messages and prints them with no prior format knowledge.
func dump(in io.Reader, formatsOnly bool) error {
	ctx, err := pbio.NewContext()
	if err != nil {
		return err
	}
	r := ctx.NewReader(in)
	seen := map[string]bool{}
	n := 0
	for {
		m, err := r.Read()
		if err == io.EOF {
			fmt.Printf("-- %d records --\n", n)
			return nil
		}
		if err != nil {
			return err
		}
		n++
		if !seen[m.FormatName()] {
			seen[m.FormatName()] = true
			fmt.Print(m.DescribeFormat())
		}
		if formatsOnly {
			continue
		}
		printRecord(m)
	}
}

// printRecord decodes via a format built, at run time, from the incoming
// format's own description — pure reflection.
func printRecord(m *pbio.Message) {
	ctx, err := pbio.NewContext()
	if err != nil {
		fatal(err)
	}
	specs := make([]pbio.FieldSpec, 0, len(m.Fields()))
	for _, fi := range m.Fields() {
		specs = append(specs, fi.Spec())
	}
	f, err := ctx.Register(m.FormatName(), specs...)
	if err != nil {
		fatal(err)
	}
	rec, err := m.Decode(f)
	if err != nil {
		fatal(err)
	}
	if m.FormatName() == flightrec.FormatName && printFlight(rec) {
		return
	}
	fmt.Printf("record %q:", m.FormatName())
	printFields(rec, m.Fields())
	fmt.Println()
}

// printFlight renders one flight-recorder event symbolically — kind
// name, UTC timestamp, node and subject — instead of raw field dumps.
// Returns false (caller falls back to the generic printer) if the
// record is missing the core fields, e.g. an evolved future schema.
func printFlight(rec *pbio.Record) bool {
	ts, err1 := rec.Int("ts_nanos", 0)
	kind, err2 := rec.Int("kind", 0)
	if err1 != nil || err2 != nil {
		return false
	}
	node, _ := rec.String("node")
	subject, _ := rec.String("subject")
	trace, _ := rec.Int("trace", 0)
	arg1, _ := rec.Int("arg1", 0)
	arg2, _ := rec.Int("arg2", 0)
	fmt.Printf("flight %s %s %s subject=%q trace=%#x arg1=%d arg2=%d",
		time.Unix(0, ts).UTC().Format("2006-01-02 15:04:05.000000"),
		node, flightrec.KindName(int32(kind)), subject, uint64(trace), arg1, arg2)
	if flightrec.Kind(kind) == flightrec.KindDCGCompile {
		// arg2 packs the fused shape; decode it so the journal shows
		// what the fusion pass produced.
		runs, words, steps := flightrec.UnpackBatchShape(arg2)
		fmt.Printf(" (compile=%dns runs=%d fused_words=%d step_fallbacks=%d)",
			arg1, runs, words, steps)
	}
	fmt.Println()
	return true
}

func printFields(rec *pbio.Record, fields []pbio.FieldInfo) {
	for _, fi := range fields {
		fmt.Printf(" %s=", fi.Name)
		switch {
		case fi.Struct:
			for e := 0; e < fi.Count && e < 2; e++ {
				sub, err := rec.Sub(fi.Name, e)
				if err != nil {
					fatal(err)
				}
				fmt.Print("{")
				printFields(sub, fi.Fields)
				fmt.Print(" }")
			}
			if fi.Count > 2 {
				fmt.Printf("...+%d", fi.Count-2)
			}
		case fi.Type == pbio.Char:
			s, _ := rec.String(fi.Name)
			fmt.Printf("%q", s)
		case fi.Type == pbio.Float || fi.Type == pbio.Double:
			printElems(fi.Count, func(i int) {
				v, _ := rec.Float(fi.Name, i)
				fmt.Print(v)
			})
		default:
			printElems(fi.Count, func(i int) {
				v, _ := rec.Int(fi.Name, i)
				fmt.Print(v)
			})
		}
	}
}

func printElems(n int, one func(int)) {
	const maxShown = 4
	if n == 1 {
		one(0)
		return
	}
	fmt.Print("[")
	for i := 0; i < n && i < maxShown; i++ {
		if i > 0 {
			fmt.Print(" ")
		}
		one(i)
	}
	if n > maxShown {
		fmt.Printf(" ...+%d", n-maxShown)
	}
	fmt.Print("]")
}

// generate writes a small demo stream with two formats.
func generate(path, arch string) error {
	ctx, err := pbio.NewContext(pbio.WithArch(arch))
	if err != nil {
		return err
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	w := ctx.NewWriter(out)

	probe, err := ctx.Register("probe",
		pbio.F("step", pbio.Int),
		pbio.F("t", pbio.Double),
		pbio.Array("name", pbio.Char, 12),
		pbio.Array("u", pbio.Double, 6),
		pbio.Struct("extent",
			pbio.F("lo", pbio.Double),
			pbio.F("hi", pbio.Double),
		),
	)
	if err != nil {
		return err
	}
	status, err := ctx.Register("status",
		pbio.F("code", pbio.Int),
		pbio.Array("msg", pbio.Char, 24),
	)
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		r := probe.NewRecord()
		r.MustSetInt("step", 0, int64(i))
		r.MustSetFloat("t", 0, float64(i)*0.05)
		r.MustSetString("name", fmt.Sprintf("probe-%d", i))
		for j := 0; j < 6; j++ {
			r.MustSetFloat("u", j, float64(i*10+j)/4)
		}
		ext := r.MustSub("extent", 0)
		ext.MustSetFloat("lo", 0, -float64(i))
		ext.MustSetFloat("hi", 0, float64(i)+1)
		if err := w.Write(r); err != nil {
			return err
		}
	}
	s := status.NewRecord()
	s.MustSetInt("code", 0, 0)
	s.MustSetString("msg", "simulation done")
	return w.Write(s)
}
