package bench

import (
	"fmt"
	"net"
	"time"

	"repro/internal/abi"
	"repro/internal/mpi"
	"repro/internal/native"
	"repro/internal/transport"
	"repro/internal/wire"
)

// LiveRoundTrip measures ACTUAL message roundtrips over TCP loopback —
// the full stack with real sockets, no network model and no CPU scaling.
// Loopback bandwidth bears no relation to the paper's Ethernet, so only
// the MPICH-vs-PBIO ordering and the encode/decode share are meaningful;
// the modelled Figures 1/5 carry the calibrated comparison.
func LiveRoundTrip() *Table {
	t := &Table{
		Title:  "Extension: live roundtrips over TCP loopback (no model, no scaling)",
		Note:   "echo peer converts to its native layout and replies; 64-roundtrip average",
		Header: []string{"size", "MPICH rt", "PBIO rt", "PBIO/MPICH"},
	}
	for _, s := range Sizes() {
		mpiRT, err := liveMPI(s)
		if err != nil {
			t.AddRow(s.Label, "error: "+err.Error(), "", "")
			continue
		}
		pbioRT, err := livePBIO(s)
		if err != nil {
			t.AddRow(s.Label, FmtDuration(mpiRT), "error: "+err.Error(), "")
			continue
		}
		t.AddRow(s.Label, FmtDuration(mpiRT), FmtDuration(pbioRT),
			fmt.Sprintf("%.0f%%", 100*float64(pbioRT)/float64(mpiRT)))
	}
	return t
}

const liveIters = 64

// liveMPI echoes records through an MPI-style peer: both directions pack
// to XDR and unpack on arrival.
func liveMPI(s Size) (time.Duration, error) {
	sparcF := wire.MustLayout(MixedSchema(s.N), &abi.SparcV8)
	x86F := wire.MustLayout(MixedSchema(s.N), &abi.X86)
	sparcDT, err := mpi.FromFormat(&abi.SparcV8, sparcF)
	if err != nil {
		return 0, err
	}
	sparcDT.Commit()
	x86DT, err := mpi.FromFormat(&abi.X86, x86F)
	if err != nil {
		return 0, err
	}
	x86DT.Commit()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	errc := make(chan error, 1)
	go func() {
		errc <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			comm := mpi.NewComm(conn, conn, mpi.ModeXDR)
			buf := native.New(x86F)
			for i := 0; i < liveIters; i++ {
				if err := comm.Recv(buf.Buf, x86DT); err != nil {
					return err
				}
				if err := comm.Send(buf.Buf, x86DT); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	comm := mpi.NewComm(conn, conn, mpi.ModeXDR)
	rec := native.New(sparcF)
	native.FillDeterministic(rec, 1)
	back := native.New(sparcF)
	start := time.Now()
	for i := 0; i < liveIters; i++ {
		if err := comm.Send(rec.Buf, sparcDT); err != nil {
			return 0, err
		}
		if err := comm.Recv(back.Buf, sparcDT); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start) / liveIters
	if err := <-errc; err != nil {
		return 0, err
	}
	return elapsed, nil
}

// livePBIO echoes records through a PBIO peer: native bytes both ways,
// generated conversion on each receive.
func livePBIO(s Size) (time.Duration, error) {
	sparcF := wire.MustLayout(MixedSchema(s.N), &abi.SparcV8)
	x86F := wire.MustLayout(MixedSchema(s.N), &abi.X86)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	errc := make(chan error, 1)
	go func() {
		errc <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			r := transport.NewReader(conn)
			w := transport.NewWriter(conn)
			o := MustOps(MustPair(s, MixedSchema))
			dst := native.New(x86F)
			for i := 0; i < liveIters; i++ {
				m, err := r.ReadMessage()
				if err != nil {
					return err
				}
				// Convert to the local layout (generated routine), then
				// echo the local record back in NDR.
				if err := o.progX.Convert(dst.Buf, m.Data); err != nil {
					return err
				}
				if err := w.WriteRecord(x86F, dst.Buf); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	w := transport.NewWriter(conn)
	r := transport.NewReader(conn)
	o := MustOps(MustPair(s, MixedSchema))
	rec := native.New(sparcF)
	native.FillDeterministic(rec, 1)
	dst := native.New(sparcF)
	start := time.Now()
	for i := 0; i < liveIters; i++ {
		if err := w.WriteRecord(sparcF, rec.Buf); err != nil {
			return 0, err
		}
		m, err := r.ReadMessage()
		if err != nil {
			return 0, err
		}
		if err := o.progS.Convert(dst.Buf, m.Data); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start) / liveIters
	if err := <-errc; err != nil {
		return 0, err
	}
	return elapsed, nil
}
