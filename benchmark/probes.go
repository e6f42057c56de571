package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"

	"repro/internal/abi"
	"repro/internal/bufpool"
	"repro/internal/convert"
	"repro/internal/dcg"
	"repro/internal/fmtserver"
	"repro/internal/transport"
	"repro/internal/wire"
)

// measure calls body (which reports how many operations it performed)
// for about budgetNs after one warming call, and returns the mean time
// and allocations per operation.
func measure(budgetNs int64, body func() (int, error)) (nsPerOp, allocsPerOp float64, err error) {
	if _, err := body(); err != nil {
		return 0, 0, err
	}
	ops := 0
	m0, t0 := mallocs(), now()
	for now()-t0 < budgetNs {
		n, err := body()
		if err != nil {
			return 0, 0, err
		}
		ops += n
	}
	dt, dm := now()-t0, mallocs()-m0
	return float64(dt) / float64(ops), float64(dm) / float64(ops), nil
}

// loopReader replays a recorded wire stream for ever: the whole image
// once, then the part after its first round (which carried the meta
// frames) again and again.
type loopReader struct {
	data      []byte
	loopStart int
	off       int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = r.loopStart
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// wireImage records what the workload's producer puts on the wire: one
// round of every format, then more rounds up to about minBytes.
func wireImage(fx *fixtures, minBytes int) (*loopReader, error) {
	var buf bytes.Buffer
	p, err := newProducer(fx, &buf)
	if err != nil {
		return nil, err
	}
	round := func() error {
		for range p.recs {
			if err := p.writeFrame(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := round(); err != nil {
		return nil, err
	}
	start := buf.Len()
	for first := true; first || buf.Len() < minBytes; first = false {
		if err := round(); err != nil {
			return nil, err
		}
	}
	return &loopReader{data: buf.Bytes(), loopStart: start}, nil
}

// writeRound is the producer's frame loop without the stamps: one frame
// of every format through Writer.Write (+Flush).
func (p *producer) writeRound() (int, error) {
	batch := p.fx.w.batch
	for _, rec := range p.recs {
		for i := 0; i < batch; i++ {
			if err := p.wr.Write(rec); err != nil {
				return 0, err
			}
		}
		if batch > 1 {
			if err := p.wr.Flush(); err != nil {
				return 0, err
			}
		}
	}
	return batch * len(p.recs), nil
}

// readRound is the consumer's frame loop without the verification: one
// frame of every format through Reader.Read and the workload's decode.
func (c *consumer) readRound() (int, error) {
	w := c.fx.w
	for k, f := range c.fmts {
		for n := 0; n < w.batch; {
			msg, err := c.rd.Read()
			if err != nil {
				return 0, err
			}
			switch w.decode {
			case decodeBatch:
				got, err := msg.DecodeBatch(f, c.bat)
				if err != nil {
					return 0, err
				}
				n += got
			case decodeInto:
				if err := msg.DecodeInto(f, c.out[k]); err != nil {
					return 0, err
				}
				n++
			default:
				if _, ok, err := msg.View(f); err != nil || !ok {
					return 0, fmt.Errorf("view of %q refused (ok=%v): %v", msg.FormatName(), ok, err)
				}
				n++
			}
		}
	}
	return w.batch * len(c.fmts), nil
}

// prober runs the isolated probes of one workload: each replays the
// workload's exact formats and record bytes through one public entry
// point, in a tight loop with no socket.
type prober struct {
	fx       *fixtures
	budgetNs int64
	out      map[string]float64
	err      error // the first failure; later probes are skipped
}

// run measures body and files its time per operation, times scale, under
// name (unless that is empty).  It returns the allocations per operation.
func (pr *prober) run(name string, scale float64, body func() (int, error)) (allocs float64) {
	if pr.err != nil {
		return 0
	}
	ns, allocs, err := measure(pr.budgetNs, body)
	if err != nil {
		pr.err = fmt.Errorf("probe %s: %w", name, err)
	}
	if name != "" {
		pr.out[name] = ns * scale
	}
	return allocs
}

// each is a probe body that runs op once per format, so that the figure
// is the mean over the workload's formats.
func (pr *prober) each(op func(d *formatDef) error) func() (int, error) {
	return func() (int, error) {
		for i := range pr.fx.fmts {
			if err := op(&pr.fx.fmts[i]); err != nil {
				return 0, err
			}
		}
		return len(pr.fx.fmts), nil
	}
}

const perUs = 1e-3 // scale of a probe reported in µs

// probes returns the per-layer metrics that come from isolated probes.
func probes(fx *fixtures, budgetNs int64) (map[string]float64, error) {
	pr := &prober{fx: fx, budgetNs: budgetNs, out: make(map[string]float64)}
	if err := pr.framing(); err != nil {
		return nil, err
	}
	if err := pr.setup(); err != nil {
		return nil, err
	}
	// convert and dcg are not on a View workload's path at all: their
	// rows read zero there, which is the point of having that workload.
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "convert.") || strings.HasPrefix(d.name, "dcg.") {
			pr.out[d.name] = 0
		}
	}
	if fx.w.decode != decodeView {
		if err := pr.conversion(); err != nil {
			return nil, err
		}
	}
	if pr.err != nil {
		return nil, pr.err
	}
	var err error
	pr.out["fmtserver.register_us"], pr.out["fmtserver.lookup_us"], err = fmtserverProbe(fx)
	if err != nil {
		return nil, fmt.Errorf("probe fmtserver: %w", err)
	}
	return pr.out, nil
}

// framing probes pbio's and transport's send and receive paths, the
// checksum and the buffer pool.
func (pr *prober) framing() error {
	fx, w := pr.fx, pr.fx.w
	perRound := w.batch * len(fx.fmts)
	p, err := newProducer(fx, io.Discard)
	if err != nil {
		return err
	}
	pr.out["pbio.write_allocs_per_record"] = pr.run("pbio.write_ns_per_record", 1, p.writeRound)
	image, err := wireImage(fx, 256<<10)
	if err != nil {
		return err
	}
	c, err := newConsumer(fx, image)
	if err != nil {
		return err
	}
	// Only the allocations: the in-situ spans time read and decode apart.
	pr.out["pbio.read_allocs_per_record"] = pr.run("", 1, c.readRound)

	tw := transport.NewWriter(io.Discard)
	tw.SetChecksums(w.checksums)
	if w.batch > 1 {
		if err := tw.SetBatching(w.batch*fx.fmts[0].sendWF.Size, 0); err != nil {
			return err
		}
	}
	pr.run("transport.write_ns_per_record", 1, func() (int, error) {
		for i := range fx.fmts {
			d := &fx.fmts[i]
			for j := 0; j < w.batch; j++ {
				if err := tw.WriteRecord(d.sendWF, d.template); err != nil {
					return 0, err
				}
			}
			if err := tw.Flush(); err != nil {
				return 0, err
			}
		}
		return perRound, nil
	})
	image.off = 0 // a fresh reader must see the meta frames again
	tr := transport.NewReader(image)
	var msg transport.Message
	pr.run("transport.read_ns_per_record", 1, func() (int, error) {
		for n := 0; n < perRound; n++ {
			if err := tr.ReadMessageInto(&msg); err != nil {
				return 0, err
			}
			if w.decode == decodeBatch {
				if rest := tr.TakeBatch(&msg); rest != nil {
					n += len(rest)/msg.Format.Size - 1
				}
			}
		}
		return perRound, nil
	})
	pr.out["transport.checksum_ns_per_record"] = 0
	if w.checksums {
		var sum []byte
		pr.run("transport.checksum_ns_per_record", 1, pr.each(func(d *formatDef) error {
			sum = transport.AppendSum(sum[:0], d.template)
			return nil
		}))
	}
	pr.run("bufpool.getput_ns", 1, pr.each(func(d *formatDef) error {
		bufpool.Put(bufpool.Get(w.batch * d.sendWF.Size))
		return nil
	}))
	return nil
}

// setup probes what a cold start pays once per format whatever the
// decode path: layout, and the meta block's encode and decode.
func (pr *prober) setup() error {
	sa, err := abi.ByName(pr.fx.w.sender)
	if err != nil {
		return err
	}
	pr.run("wire.layout_us", perUs, pr.each(func(d *formatDef) error {
		_, err := wire.Layout(d.sendSch, &sa)
		return err
	}))
	pr.run("wire.meta_encode_us", perUs, pr.each(func(d *formatDef) error {
		wire.EncodeMeta(d.sendWF)
		return nil
	}))
	pr.run("wire.meta_decode_us", perUs, pr.each(func(d *formatDef) error {
		_, _, err := wire.DecodeMeta(d.meta)
		return err
	}))
	return nil
}

// conversion probes the three engines on the workload's layout pairs,
// and what it costs to plan, compile and look one up.
func (pr *prober) conversion() error {
	fx, w := pr.fx, pr.fx.w
	pr.run("convert.plan_us", perUs, pr.each(func(d *formatDef) error {
		_, err := convert.NewPlan(d.sendWF, d.recvWF)
		return err
	}))
	pr.run("dcg.compile_us", perUs, pr.each(func(d *formatDef) error {
		_, err := dcg.Compile(d.interp.Plan())
		return err
	}))
	pr.run("dcg.compile_batch_us", perUs, pr.each(func(d *formatDef) error {
		_, err := dcg.CompileBatch(d.interp.Plan())
		return err
	}))
	progs := make(map[*formatDef]*dcg.Program)
	batches := make(map[*formatDef]*dcg.BatchProgram)
	frames := make(map[*formatDef][]byte) // a frame's worth of wire records
	cache := dcg.NewCache()
	dstMax := 0
	for i := range fx.fmts {
		d := &fx.fmts[i]
		var err error
		if progs[d], err = dcg.Compile(d.interp.Plan()); err != nil {
			return err
		}
		if batches[d], err = dcg.CompileBatch(d.interp.Plan()); err != nil {
			return err
		}
		if _, err = cache.Get(d.sendWF, d.recvWF); err != nil {
			return err
		}
		frames[d] = bytes.Repeat(d.template, w.batch)
		dstMax = max(dstMax, w.batch*d.recvWF.Size)
	}
	dst := make([]byte, dstMax)
	pr.run("convert.interp_ns_per_record", 1, pr.each(func(d *formatDef) error {
		return d.interp.Convert(dst, d.template)
	}))
	pr.run("dcg.convert_ns_per_record", 1, pr.each(func(d *formatDef) error {
		return progs[d].Convert(dst, d.template)
	}))
	pr.run("dcg.convert_batch_ns_per_record", 1/float64(w.batch), pr.each(func(d *formatDef) error {
		_, err := batches[d].ConvertBatch(dst, frames[d])
		return err
	}))
	pr.run("dcg.cache_get_ns", 1, pr.each(func(d *formatDef) error {
		_, err := cache.Get(d.sendWF, d.recvWF)
		return err
	}))
	return nil
}

// fmtserverProbe times Client.Register and Client.Lookup round trips
// against an in-process fmtserver.Server on loopback.  Both clients cache,
// so every call uses a format its client has not seen.
func fmtserverProbe(fx *fixtures) (registerUs, lookupUs float64, err error) {
	const n = 200
	sa, err := abi.ByName(fx.w.sender)
	if err != nil {
		return 0, 0, err
	}
	formats := make([]*wire.Format, n)
	for i := range formats {
		sch := *fx.fmts[i%len(fx.fmts)].sendSch
		sch.Name = fmt.Sprintf("%s.probe%03d", sch.Name, i)
		if formats[i], err = wire.Layout(&sch, &sa); err != nil {
			return 0, 0, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	srv := fmtserver.NewServer()
	served := make(chan struct{})
	go func() {
		srv.Serve(ln) // returns when ln closes
		close(served)
	}()
	defer func() {
		ln.Close()
		<-served
	}()
	registrar, err := fmtserver.Dial(ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	defer registrar.Close()
	resolver, err := fmtserver.Dial(ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	defer resolver.Close()
	ids := make([]fmtserver.FormatID, n)
	t0 := now()
	for i, f := range formats {
		if ids[i], err = registrar.Register(f); err != nil {
			return 0, 0, err
		}
	}
	t1 := now()
	for _, id := range ids {
		if _, err = resolver.Lookup(id); err != nil {
			return 0, 0, err
		}
	}
	t2 := now()
	return float64(t1-t0) / n / 1e3, float64(t2-t1) / n / 1e3, nil
}
