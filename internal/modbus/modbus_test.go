package modbus

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"testing/quick"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{Transaction: 0xBEEF, Unit: 3, PDU: PDU{Function: FuncReadHolding, Data: []byte{0, 1, 0, 2}}}
	raw, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Transaction != f.Transaction || got.Unit != f.Unit ||
		got.PDU.Function != f.PDU.Function || !bytes.Equal(got.PDU.Data, f.PDU.Data) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
	}
}

func TestFrameTooLarge(t *testing.T) {
	f := Frame{PDU: PDU{Function: 1, Data: make([]byte, 300)}}
	if _, err := EncodeFrame(f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadFrameErrors(t *testing.T) {
	// Bad protocol ID.
	raw := []byte{0, 1, 0, 9, 0, 2, 1, 3}
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadProtocolID) {
		t.Fatalf("err = %v", err)
	}
	// Truncated.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 1})); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Length < 2.
	raw = []byte{0, 1, 0, 0, 0, 1, 1}
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestPayloadCodecs(t *testing.T) {
	regs := []uint16{1, 0xFFFF, 42}
	parsed, err := BytesToRegisters(RegistersToBytes(regs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range regs {
		if parsed[i] != regs[i] {
			t.Fatalf("registers round trip: %v vs %v", parsed, regs)
		}
	}
	// Coils pack LSB-first behind a byte count: 1,0,1,1,0,0,0,1 | 1.
	coils := []bool{true, false, true, true, false, false, false, true, true}
	if got, want := CoilsToBytes(coils), []byte{2, 0x8D, 0x01}; !bytes.Equal(got, want) {
		t.Fatalf("coils = % x, want % x", got, want)
	}
	// start=7, count=2, byte count 4, values 9 and 8.
	start, values, err := ParseWriteMultiple([]byte{0, 7, 0, 2, 4, 0, 9, 0, 8})
	if err != nil || start != 7 || len(values) != 2 || values[0] != 9 || values[1] != 8 {
		t.Fatalf("write multiple: start=%d values=%v err=%v", start, values, err)
	}
}

func TestMemoryModelHandle(t *testing.T) {
	m := NewMemoryModel(10, 10, 16, 16)
	// Write then read a holding register.
	resp := m.Handle(PDU{Function: FuncWriteSingleReg, Data: WriteSingleRequest(3, 1234)})
	if resp.IsException() {
		t.Fatalf("write exception: %+v", resp)
	}
	resp = m.Handle(PDU{Function: FuncReadHolding, Data: ReadRequest(3, 1)})
	regs, err := BytesToRegisters(resp.Data)
	if err != nil || regs[0] != 1234 {
		t.Fatalf("read back: %v err=%v", regs, err)
	}
	// Out-of-range read → illegal address.
	resp = m.Handle(PDU{Function: FuncReadHolding, Data: ReadRequest(9, 5)})
	if !resp.IsException() || resp.Data[0] != ExIllegalDataAddress {
		t.Fatalf("expected illegal-address exception, got %+v", resp)
	}
	// Unknown function → illegal function.
	resp = m.Handle(PDU{Function: 0x2B})
	if !resp.IsException() || resp.Data[0] != ExIllegalFunction {
		t.Fatalf("expected illegal-function exception, got %+v", resp)
	}
	// Coil write with bad value → illegal value.
	resp = m.Handle(PDU{Function: FuncWriteSingleCoil, Data: WriteSingleRequest(0, 0x1234)})
	if !resp.IsException() || resp.Data[0] != ExIllegalDataValue {
		t.Fatalf("expected illegal-value exception, got %+v", resp)
	}
	// Valid coil write.
	resp = m.Handle(PDU{Function: FuncWriteSingleCoil, Data: WriteSingleRequest(2, 0xFF00)})
	if resp.IsException() {
		t.Fatalf("coil write failed: %+v", resp)
	}
	if on, err := m.Coil(2); err != nil || !on {
		t.Fatalf("coil state: %v %v", on, err)
	}
	// Multiple register write.
	resp = m.Handle(PDU{Function: FuncWriteMultipleRegs, Data: []byte{0, 5, 0, 3, 6, 0, 1, 0, 2, 0, 3}})
	if resp.IsException() {
		t.Fatalf("multi write failed: %+v", resp)
	}
	if v, err := m.Holding(6); err != nil || v != 2 {
		t.Fatalf("holding[6] = %v err=%v", v, err)
	}
}

func TestMemoryModelProcessSide(t *testing.T) {
	m := NewMemoryModel(4, 4, 4, 4)
	if err := m.SetInput(1, 777); err != nil {
		t.Fatal(err)
	}
	if err := m.SetInput(99, 1); err == nil {
		t.Fatal("out-of-range input accepted")
	}
	if err := m.SetDiscrete(0, true); err != nil {
		t.Fatal(err)
	}
	resp := m.Handle(PDU{Function: FuncReadInput, Data: ReadRequest(1, 1)})
	regs, err := BytesToRegisters(resp.Data)
	if err != nil || regs[0] != 777 {
		t.Fatalf("input read: %v %v", regs, err)
	}
	resp = m.Handle(PDU{Function: FuncReadDiscreteInputs, Data: ReadRequest(0, 1)})
	if !bytes.Equal(resp.Data, []byte{1, 0x01}) {
		t.Fatalf("discrete read: % x", resp.Data)
	}
}

func TestDialectRoundTrip(t *testing.T) {
	d := NewDiversifiedDialect([]byte("site-key-1"))
	p := PDU{Function: FuncWriteSingleReg, Data: WriteSingleRequest(1, 2)}
	wire := d.Wrap(p)
	if wire.Function == p.Function && bytes.Equal(wire.Data, p.Data) {
		t.Fatal("diversified dialect is a no-op")
	}
	back, err := d.Unwrap(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Function != p.Function || !bytes.Equal(back.Data, p.Data) {
		t.Fatalf("unwrap mismatch: %+v vs %+v", back, p)
	}
}

func TestDialectRejectsStandardTraffic(t *testing.T) {
	d := NewDiversifiedDialect([]byte("site-key-1"))
	std := PDU{Function: FuncWriteSingleReg, Data: WriteSingleRequest(1, 0xDEAD)}
	if _, err := d.Unwrap(std); !errors.Is(err, ErrDialectAuth) {
		t.Fatalf("standard traffic accepted by diversified dialect: %v", err)
	}
}

func TestDialectRejectsWrongKey(t *testing.T) {
	d1 := NewDiversifiedDialect([]byte("site-key-1"))
	d2 := NewDiversifiedDialect([]byte("site-key-2"))
	wire := d1.Wrap(PDU{Function: FuncReadHolding, Data: ReadRequest(0, 1)})
	if _, err := d2.Unwrap(wire); !errors.Is(err, ErrDialectAuth) {
		t.Fatalf("cross-key traffic accepted: %v", err)
	}
}

func TestDialectRejectsTamperedPayload(t *testing.T) {
	d := NewDiversifiedDialect([]byte("k"))
	wire := d.Wrap(PDU{Function: FuncWriteSingleReg, Data: WriteSingleRequest(1, 1)})
	wire.Data[1] ^= 0xFF // flip a payload byte, keep the tag
	if _, err := d.Unwrap(wire); !errors.Is(err, ErrDialectAuth) {
		t.Fatalf("tampered frame accepted: %v", err)
	}
}

func TestDialectExceptionFlagPreserved(t *testing.T) {
	d := NewDiversifiedDialect([]byte("k"))
	exc := ExceptionPDU(FuncReadHolding, ExIllegalDataAddress)
	wire := d.Wrap(exc)
	if !wire.IsException() {
		t.Fatal("wrapped exception lost its flag")
	}
	back, err := d.Unwrap(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !back.IsException() || back.Function&^0x80 != FuncReadHolding {
		t.Fatalf("unwrapped exception = %+v", back)
	}
}

// startPipeServer wires a server to one end of a net.Pipe and returns a
// client on the other end.
func startPipeServer(t *testing.T, dialect Dialect, clientDialect Dialect) (*Client, *MemoryModel, func()) {
	t.Helper()
	model := NewMemoryModel(64, 64, 64, 64)
	srv := NewServer(model, dialect)
	serverConn, clientConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(serverConn)
		close(done)
	}()
	client := NewClient(clientConn, clientDialect, 1, 0)
	cleanup := func() {
		if err := client.Close(); err != nil {
			t.Logf("client close: %v", err)
		}
		<-done
	}
	return client, model, cleanup
}

func TestClientServerStandard(t *testing.T) {
	client, model, cleanup := startPipeServer(t, StandardDialect{}, StandardDialect{})
	defer cleanup()
	if err := client.WriteRegister(10, 4242); err != nil {
		t.Fatal(err)
	}
	if v, err := model.Holding(10); err != nil || v != 4242 {
		t.Fatalf("model state: %v %v", v, err)
	}
	// Input registers come from the process side.
	if err := model.SetInput(2, 512); err != nil {
		t.Fatal(err)
	}
	in, err := client.ReadInput(2, 1)
	if err != nil || in[0] != 512 {
		t.Fatalf("read input: %v %v", in, err)
	}
}

func TestClientServerDiversified(t *testing.T) {
	key := []byte("plant-7-secret")
	client, model, cleanup := startPipeServer(t,
		NewDiversifiedDialect(key), NewDiversifiedDialect(key))
	defer cleanup()
	if err := client.WriteRegister(1, 99); err != nil {
		t.Fatal(err)
	}
	if v, err := model.Holding(1); err != nil || v != 99 {
		t.Fatalf("diversified write: %v %v", v, err)
	}
	if err := model.SetInput(1, 98); err != nil {
		t.Fatal(err)
	}
	regs, err := client.ReadInput(1, 1)
	if err != nil || regs[0] != 98 {
		t.Fatalf("diversified read: %v %v", regs, err)
	}
}

func TestAttackerRejectedByDiversifiedServer(t *testing.T) {
	// Attacker speaks standard Modbus to a diversified endpoint — the
	// MODBUS-WRITE exploit path must fail.
	client, model, cleanup := startPipeServer(t,
		NewDiversifiedDialect([]byte("plant-7-secret")), StandardDialect{})
	defer cleanup()
	err := client.WriteRegister(0, 0xDEAD)
	var exc *ExceptionError
	if !errors.As(err, &exc) {
		t.Fatalf("attack write error = %v, want exception", err)
	}
	if v, mErr := model.Holding(0); mErr != nil || v != 0 {
		t.Fatalf("attack write reached the model: %v %v", v, mErr)
	}
}

func TestClientServerOverTCP(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	model := NewMemoryModel(16, 16, 16, 16)
	srv := NewServer(model, StandardDialect{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(conn, StandardDialect{}, 1, 2*time.Second)
	if err := client.WriteRegister(4, 77); err != nil {
		t.Fatal(err)
	}
	if v, err := model.Holding(4); err != nil || v != 77 {
		t.Fatalf("TCP write: %v %v", v, err)
	}
	if err := model.SetInput(4, 78); err != nil {
		t.Fatal(err)
	}
	regs, err := client.ReadInput(4, 1)
	if err != nil || regs[0] != 78 {
		t.Fatalf("TCP read: %v %v", regs, err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve returned %v", err)
	}
}

func TestClientExceptionSurfaced(t *testing.T) {
	client, _, cleanup := startPipeServer(t, StandardDialect{}, StandardDialect{})
	defer cleanup()
	_, err := client.ReadInput(1000, 5) // out of range
	var exc *ExceptionError
	if !errors.As(err, &exc) || exc.Code != ExIllegalDataAddress {
		t.Fatalf("err = %v", err)
	}
}

// Property: any PDU survives the diversified wrap/unwrap cycle.
func TestQuickDialectRoundTrip(t *testing.T) {
	d := NewDiversifiedDialect([]byte("prop-key"))
	f := func(fn byte, data []byte) bool {
		fn = fn%0x7F + 1
		if len(data) > 180 {
			data = data[:180]
		}
		p := PDU{Function: fn, Data: data}
		back, err := d.Unwrap(d.Wrap(p))
		if err != nil {
			return false
		}
		return back.Function == p.Function && bytes.Equal(back.Data, p.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: frame codec round-trips arbitrary PDUs.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(txn uint16, unit byte, fn byte, data []byte) bool {
		if len(data) > 200 {
			data = data[:200]
		}
		fr := Frame{Transaction: txn, Unit: unit, PDU: PDU{Function: fn, Data: data}}
		raw, err := EncodeFrame(fr)
		if err != nil {
			return false
		}
		got, err := ReadFrame(bytes.NewReader(raw))
		if err != nil {
			return false
		}
		return got.Transaction == txn && got.Unit == unit &&
			got.PDU.Function == fn && bytes.Equal(got.PDU.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	f := Frame{Transaction: 1, Unit: 1, PDU: PDU{Function: FuncReadHolding, Data: ReadRequest(0, 10)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw, err := EncodeFrame(f)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ReadFrame(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDialectWrapUnwrap(b *testing.B) {
	d := NewDiversifiedDialect([]byte("bench-key"))
	p := PDU{Function: FuncWriteSingleReg, Data: WriteSingleRequest(1, 2)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Unwrap(d.Wrap(p)); err != nil {
			b.Fatal(err)
		}
	}
}
