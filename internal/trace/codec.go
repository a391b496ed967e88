package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Binary trace format
//
//	magic  "PCTR" (4 bytes)
//	version uint16 (little endian) = 1
//	app     uvarint length + bytes
//	exec    uvarint
//	count   uvarint (number of events)
//	events  delta-encoded records:
//	    dt     uvarint (time delta in µs from previous event)
//	    pid    uvarint
//	    kind   byte
//	    KindIO:   access byte, pc uvarint, fd varint, block varint, size varint
//	    KindFork: child uvarint
//	    KindExit: (nothing)
//
// Delta timing plus varints keeps multi-hundred-thousand-event traces
// compact without pulling in any non-stdlib dependency.

const (
	binaryMagic   = "PCTR"
	binaryVersion = 1
)

// ErrBadFormat is returned when decoding input that is not a valid binary
// trace.
var ErrBadFormat = errors.New("trace: bad format")

// Encoder writes one execution in the binary trace format, one event per
// Write call, so producers stream events straight to disk instead of
// materializing a Trace first. The event count is part of the header and
// must therefore be known up front; per-execution producers (the workload
// builder, tracegen) know it from their reorder buffer. Output is
// byte-identical to WriteBinary over the same events.
type Encoder struct {
	bw      *bufio.Writer
	count   int
	written int
	prev    Time
}

// NewEncoder writes the binary header for an execution of count events
// and returns an encoder for its event stream. I/O errors are sticky in
// the buffered writer and surface at Close.
func NewEncoder(w io.Writer, app string, exec int, count int) (*Encoder, error) {
	if count < 0 {
		return nil, fmt.Errorf("trace: negative event count %d", count)
	}
	if exec < 0 {
		return nil, fmt.Errorf("trace: negative execution index %d", exec)
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(binaryMagic) //pcaplint:ignore errcheck-lite bufio errors are sticky and surface at Close's Flush
	var v2 [2]byte
	binary.LittleEndian.PutUint16(v2[:], binaryVersion)
	bw.Write(v2[:]) //pcaplint:ignore errcheck-lite bufio errors are sticky and surface at Close's Flush
	writeUvarint(bw, uint64(len(app)))
	bw.WriteString(app) //pcaplint:ignore errcheck-lite bufio errors are sticky and surface at Close's Flush
	writeUvarint(bw, uint64(exec))
	writeUvarint(bw, uint64(count))
	return &Encoder{bw: bw, count: count}, nil
}

// Write encodes the next event. Events must arrive in non-decreasing time
// order and must not exceed the declared count.
func (enc *Encoder) Write(e Event) error {
	i := enc.written
	if i >= enc.count {
		return fmt.Errorf("trace: event %d exceeds declared count %d", i, enc.count)
	}
	if e.Time < enc.prev {
		return fmt.Errorf("trace: event %d out of order; call SortStable before encoding", i)
	}
	writeUvarint(enc.bw, uint64(e.Time-enc.prev))
	enc.prev = e.Time
	writeUvarint(enc.bw, uint64(e.Pid))
	enc.bw.WriteByte(byte(e.Kind)) //pcaplint:ignore errcheck-lite bufio errors are sticky and surface at Close's Flush
	switch e.Kind {
	case KindIO:
		enc.bw.WriteByte(byte(e.Access)) //pcaplint:ignore errcheck-lite bufio errors are sticky and surface at Close's Flush
		writeUvarint(enc.bw, uint64(e.PC))
		writeVarint(enc.bw, int64(e.FD))
		writeVarint(enc.bw, e.Block)
		writeVarint(enc.bw, int64(e.Size))
	case KindFork:
		writeUvarint(enc.bw, uint64(e.Child))
	case KindExit:
	default:
		return fmt.Errorf("trace: event %d has unknown kind %d", i, e.Kind)
	}
	enc.written++
	return nil
}

// Close flushes the encoder, verifying every declared event was written.
func (enc *Encoder) Close() error {
	if enc.written != enc.count {
		return fmt.Errorf("trace: wrote %d of %d declared events", enc.written, enc.count)
	}
	return enc.bw.Flush()
}

// WriteBinary encodes the trace to w in the binary trace format.
func WriteBinary(w io.Writer, t *Trace) error {
	enc, err := NewEncoder(w, t.App, t.Execution, len(t.Events))
	if err != nil {
		return err
	}
	for _, e := range t.Events {
		if err := enc.Write(e); err != nil {
			return err
		}
	}
	return enc.Close()
}

// Decoder is a streaming reader of the binary trace format: a Source over
// one or more consecutive binary traces (executions) on r, decoding one
// execution at a time into a buffer it reuses, so multi-gigabyte files
// replay in the memory of their largest execution. Reset rewinds when r
// is an io.Seeker.
type Decoder struct {
	r     io.Reader
	seek  io.Seeker
	br    *bufio.Reader
	err   error
	ended bool // clean end of stream reached

	app    string
	exec   int
	count  uint64 // events declared by the current execution's header
	read   uint64 // events decoded from the current execution
	inExec bool
	prev   Time
	buf    []Event // the current execution's events, lent by ExecEvents
}

// NewDecoder returns a streaming decoder over r. If r is also an
// io.Seeker (os.File, bytes.Reader), the decoder supports Reset.
func NewDecoder(r io.Reader) *Decoder {
	seek, _ := r.(io.Seeker)
	return &Decoder{r: r, seek: seek, br: bufio.NewReader(r)}
}

// NextExec implements Source: it reads the next execution's header,
// decoding any events of the current one not yet lent first. ok=false with a
// nil Err means the stream ended cleanly at an execution boundary.
func (d *Decoder) NextExec() (string, int, bool) {
	if d.err != nil || d.ended {
		return "", 0, false
	}
	for d.inExec { // decode (and so validate) the rest of the current execution
		if _, ok := d.next(); !ok {
			if d.err != nil {
				return "", 0, false
			}
		}
	}
	var magic [4]byte
	if _, err := io.ReadFull(d.br, magic[:]); err != nil {
		if err == io.EOF {
			d.ended = true // clean boundary: no more executions
		} else {
			d.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		return "", 0, false
	}
	if string(magic[:]) != binaryMagic {
		d.err = fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic[:])
		return "", 0, false
	}
	var v2 [2]byte
	if _, err := io.ReadFull(d.br, v2[:]); err != nil {
		d.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
		return "", 0, false
	}
	if v := binary.LittleEndian.Uint16(v2[:]); v != binaryVersion {
		d.err = fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
		return "", 0, false
	}
	nameLen, err := binary.ReadUvarint(d.br)
	if err != nil {
		d.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
		return "", 0, false
	}
	if nameLen > 1<<20 {
		d.err = fmt.Errorf("%w: app name too long (%d)", ErrBadFormat, nameLen)
		return "", 0, false
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(d.br, name); err != nil {
		d.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
		return "", 0, false
	}
	exec, err := binary.ReadUvarint(d.br)
	if err != nil {
		d.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
		return "", 0, false
	}
	count, err := binary.ReadUvarint(d.br)
	if err != nil {
		d.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
		return "", 0, false
	}
	d.app = string(name)
	d.exec = int(exec)
	d.count = count
	d.read = 0
	d.prev = 0
	d.inExec = count > 0
	return d.app, d.exec, true
}

// ExecEvents implements Source: it decodes the rest of the current
// execution into the decoder's buffer.
func (d *Decoder) ExecEvents() []Event {
	d.buf = d.buf[:0]
	for {
		e, ok := d.next()
		if !ok {
			return d.buf
		}
		d.buf = append(d.buf, e)
	}
}

// next decodes the next event of the current execution.
func (d *Decoder) next() (Event, bool) {
	if d.err != nil || !d.inExec {
		return Event{}, false
	}
	i := d.read
	fail := func(err error) (Event, bool) {
		d.err = fmt.Errorf("%w: event %d: %v", ErrBadFormat, i, err)
		d.inExec = false
		return Event{}, false
	}
	dt, err := binary.ReadUvarint(d.br)
	if err != nil {
		return fail(err)
	}
	pid, err := binary.ReadUvarint(d.br)
	if err != nil {
		return fail(err)
	}
	kindByte, err := d.br.ReadByte()
	if err != nil {
		return fail(err)
	}
	e := Event{Time: d.prev + Time(dt), Pid: PID(pid), Kind: Kind(kindByte)}
	d.prev = e.Time
	switch e.Kind {
	case KindIO:
		accessByte, err := d.br.ReadByte()
		if err != nil {
			return fail(err)
		}
		e.Access = Access(accessByte)
		pc, err := binary.ReadUvarint(d.br)
		if err != nil {
			return fail(err)
		}
		e.PC = PC(pc)
		fd, err := binary.ReadVarint(d.br)
		if err != nil {
			return fail(err)
		}
		e.FD = FD(fd)
		block, err := binary.ReadVarint(d.br)
		if err != nil {
			return fail(err)
		}
		e.Block = block
		size, err := binary.ReadVarint(d.br)
		if err != nil {
			return fail(err)
		}
		e.Size = int32(size)
	case KindFork:
		child, err := binary.ReadUvarint(d.br)
		if err != nil {
			return fail(err)
		}
		e.Child = PID(child)
	case KindExit:
	default:
		d.err = fmt.Errorf("%w: event %d has unknown kind %d", ErrBadFormat, i, kindByte)
		d.inExec = false
		return Event{}, false
	}
	d.read++
	if d.read >= d.count {
		d.inExec = false
	}
	return e, true
}

// Err implements Source.
func (d *Decoder) Err() error { return d.err }

// Reset implements Source, rewinding seekable inputs to the start.
func (d *Decoder) Reset() error {
	if d.seek == nil {
		return fmt.Errorf("trace: decoder input is not seekable")
	}
	if _, err := d.seek.Seek(0, io.SeekStart); err != nil {
		return err
	}
	d.br.Reset(d.r)
	d.err = nil
	d.ended = false
	d.inExec = false
	d.count, d.read = 0, 0
	return nil
}

// ReadBinary decodes a trace previously encoded with WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
	d := NewDecoder(r)
	app, exec, ok := d.NextExec()
	if !ok {
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, io.EOF)
	}
	// d is discarded here, so its buffer is never reused: the trace can
	// keep the lent slice.
	t := &Trace{App: app, Execution: exec, Events: d.ExecEvents()}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) //pcaplint:ignore errcheck-lite bufio errors are sticky and surface at the encoder's Flush
}

func writeVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n]) //pcaplint:ignore errcheck-lite bufio errors are sticky and surface at the encoder's Flush
}

// WriteText encodes the trace in a line-oriented, human-readable format:
//
//	# pcap-trace v1
//	# app <name> exec <n>
//	<time-µs> io <pid> <access> pc=0x<hex> fd=<n> block=<n> size=<n>
//	<time-µs> fork <pid> child=<pid>
//	<time-µs> exit <pid>
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# pcap-trace v1\n# app %s exec %d\n", t.App, t.Execution); err != nil {
		return err
	}
	for _, e := range t.Events {
		if _, err := fmt.Fprintln(bw, e.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText decodes a trace in the text format written by WriteText.
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	t := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			// "# app <name> exec <n>"
			if len(fields) >= 5 && fields[1] == "app" && fields[3] == "exec" {
				t.App = fields[2]
				exec, err := strconv.Atoi(fields[4])
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: bad exec: %v", line, err)
				}
				t.Execution = exec
			}
			continue
		}
		e, err := parseTextEvent(text)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

func parseTextEvent(text string) (Event, error) {
	fields := strings.Fields(text)
	if len(fields) < 3 {
		return Event{}, fmt.Errorf("too few fields in %q", text)
	}
	us, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("bad time: %v", err)
	}
	pid, err := strconv.ParseInt(fields[2], 10, 32)
	if err != nil {
		return Event{}, fmt.Errorf("bad pid: %v", err)
	}
	e := Event{Time: Time(us), Pid: PID(pid)}
	switch fields[1] {
	case "fork":
		e.Kind = KindFork
		if len(fields) < 4 {
			return Event{}, fmt.Errorf("fork missing child in %q", text)
		}
		child, err := parseKV(fields[3], "child")
		if err != nil {
			return Event{}, err
		}
		e.Child = PID(child)
	case "exit":
		e.Kind = KindExit
	case "io":
		e.Kind = KindIO
		if len(fields) < 8 {
			return Event{}, fmt.Errorf("io event has too few fields in %q", text)
		}
		switch fields[3] {
		case "read":
			e.Access = AccessRead
		case "write":
			e.Access = AccessWrite
		case "open":
			e.Access = AccessOpen
		case "close":
			e.Access = AccessClose
		default:
			return Event{}, fmt.Errorf("unknown access %q", fields[3])
		}
		pc, err := parseKV(fields[4], "pc")
		if err != nil {
			return Event{}, err
		}
		e.PC = PC(pc)
		fd, err := parseKV(fields[5], "fd")
		if err != nil {
			return Event{}, err
		}
		e.FD = FD(fd)
		block, err := parseKV(fields[6], "block")
		if err != nil {
			return Event{}, err
		}
		e.Block = block
		size, err := parseKV(fields[7], "size")
		if err != nil {
			return Event{}, err
		}
		e.Size = int32(size)
	default:
		return Event{}, fmt.Errorf("unknown event kind %q", fields[1])
	}
	return e, nil
}

// TextDecoder is a streaming reader of the text trace format: a Source
// over one or more concatenated text traces, one line per event, parsed
// one execution at a time into a buffer it reuses. An "# app <name> exec
// <n>" header starts a new execution; events before any header belong to
// an unnamed execution 0. Reset rewinds when r is an io.Seeker.
type TextDecoder struct {
	r    io.Reader
	seek io.Seeker
	sc   *bufio.Scanner
	line int
	err  error

	app, nextApp   string
	exec, nextExec int
	haveHeader     bool  // an unconsumed header was seen
	pending        Event // parsed but undelivered event
	havePending    bool
	inExec         bool
	buf            []Event // the current execution's events, lent by ExecEvents
}

// NewTextDecoder returns a streaming decoder over the text format.
func NewTextDecoder(r io.Reader) *TextDecoder {
	seek, _ := r.(io.Seeker)
	d := &TextDecoder{r: r, seek: seek}
	d.newScanner()
	return d
}

func (d *TextDecoder) newScanner() {
	d.sc = bufio.NewScanner(d.r)
	d.sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
}

// scanLine advances to the next meaningful line: it returns an event to
// deliver, records headers, and reports the end of input.
// kind: 0 = event (in e), 1 = header, 2 = end of input.
func (d *TextDecoder) scanLine() (e Event, kind int) {
	for d.sc.Scan() {
		d.line++
		text := strings.TrimSpace(d.sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) >= 5 && fields[1] == "app" && fields[3] == "exec" {
				exec, err := strconv.Atoi(fields[4])
				if err != nil {
					d.err = fmt.Errorf("trace: line %d: bad exec: %v", d.line, err)
					return Event{}, 2
				}
				d.nextApp, d.nextExec = fields[2], exec
				d.haveHeader = true
				return Event{}, 1
			}
			continue
		}
		ev, err := parseTextEvent(text)
		if err != nil {
			d.err = fmt.Errorf("trace: line %d: %v", d.line, err)
			return Event{}, 2
		}
		return ev, 0
	}
	if err := d.sc.Err(); err != nil && d.err == nil {
		d.err = err
	}
	return Event{}, 2
}

// NextExec implements Source.
func (d *TextDecoder) NextExec() (string, int, bool) {
	if d.err != nil {
		return "", 0, false
	}
	for d.inExec { // parse (and so validate) the rest of the current execution
		if _, ok := d.next(); !ok && d.err != nil {
			return "", 0, false
		}
	}
	for {
		if d.havePending || d.haveHeader {
			// A stashed event starts the next execution under the most
			// recent header; a bare header starts an (empty-so-far) one.
			d.app, d.exec = d.nextApp, d.nextExec
			d.haveHeader = false
			d.inExec = true
			return d.app, d.exec, true
		}
		e, kind := d.scanLine()
		switch kind {
		case 0:
			d.pending, d.havePending = e, true
		case 1:
			// header recorded; loop to start the execution
		case 2:
			return "", 0, false
		}
	}
}

// ExecEvents implements Source: it parses the rest of the current
// execution into the decoder's buffer.
func (d *TextDecoder) ExecEvents() []Event {
	d.buf = d.buf[:0]
	for {
		e, ok := d.next()
		if !ok {
			return d.buf
		}
		d.buf = append(d.buf, e)
	}
}

// next parses the next event of the current execution.
func (d *TextDecoder) next() (Event, bool) {
	if d.err != nil || !d.inExec {
		return Event{}, false
	}
	if d.havePending {
		d.havePending = false
		return d.pending, true
	}
	e, kind := d.scanLine()
	switch kind {
	case 0:
		return e, true
	case 1:
		d.inExec = false // a new header ends the current execution
		return Event{}, false
	default:
		d.inExec = false
		return Event{}, false
	}
}

// Err implements Source.
func (d *TextDecoder) Err() error { return d.err }

// Reset implements Source, rewinding seekable inputs to the start.
func (d *TextDecoder) Reset() error {
	if d.seek == nil {
		return fmt.Errorf("trace: decoder input is not seekable")
	}
	if _, err := d.seek.Seek(0, io.SeekStart); err != nil {
		return err
	}
	d.newScanner()
	d.line = 0
	d.err = nil
	d.app, d.nextApp = "", ""
	d.exec, d.nextExec = 0, 0
	d.haveHeader, d.havePending, d.inExec = false, false, false
	return nil
}

func parseKV(field, key string) (int64, error) {
	prefix := key + "="
	if !strings.HasPrefix(field, prefix) {
		return 0, fmt.Errorf("expected %s=..., got %q", key, field)
	}
	val := field[len(prefix):]
	if strings.HasPrefix(val, "0x") || strings.HasPrefix(val, "0X") {
		v, err := strconv.ParseUint(val[2:], 16, 64)
		return int64(v), err
	}
	return strconv.ParseInt(val, 10, 64)
}
