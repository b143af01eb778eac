package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// magic header for the parameter container format.
var paramMagic = [4]byte{'D', 'I', 'P', '1'}

// SaveParams writes the parameters of a module to w in a simple
// length-prefixed little-endian binary container: magic, count, then for
// each parameter its name, dimensions and float32 payload.
func SaveParams(w io.Writer, params []*Param) error {
	if _, err := w.Write(paramMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		name := []byte(p.Name)
		if err := binary.Write(w, binary.LittleEndian, uint32(len(name))); err != nil {
			return err
		}
		if _, err := w.Write(name); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(p.W.Rows)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(p.W.Cols)); err != nil {
			return err
		}
		buf := make([]byte, 4*len(p.W.Data))
		for i, x := range p.W.Data {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// LoadParams reads a container written by SaveParams into the given
// parameters, matching by name. Every parameter in params must be present
// in the stream with identical dimensions.
func LoadParams(r io.Reader, params []*Param) error {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("nn: reading magic: %w", err)
	}
	if magic != paramMagic {
		return fmt.Errorf("nn: bad magic %q", magic[:])
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return err
	}
	byName := make(map[string]*Param, len(params))
	for _, p := range params {
		byName[p.Name] = p
	}
	loaded := make(map[string]bool)
	for i := uint32(0); i < count; i++ {
		var nameLen uint32
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return err
		}
		if nameLen > 1<<16 {
			return fmt.Errorf("nn: implausible name length %d", nameLen)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(r, nameBuf); err != nil {
			return err
		}
		var rows, cols uint32
		if err := binary.Read(r, binary.LittleEndian, &rows); err != nil {
			return err
		}
		if err := binary.Read(r, binary.LittleEndian, &cols); err != nil {
			return err
		}
		payload := make([]byte, 4*rows*cols)
		if _, err := io.ReadFull(r, payload); err != nil {
			return err
		}
		p, ok := byName[string(nameBuf)]
		if !ok {
			continue // tolerate extra parameters in the stream
		}
		if uint32(p.W.Rows) != rows || uint32(p.W.Cols) != cols {
			return fmt.Errorf("nn: parameter %s dimension mismatch: file %dx%d, model %dx%d",
				nameBuf, rows, cols, p.W.Rows, p.W.Cols)
		}
		for j := range p.W.Data {
			p.W.Data[j] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*j:]))
		}
		p.W.Invalidate()
		loaded[string(nameBuf)] = true
	}
	for _, p := range params {
		if !loaded[p.Name] {
			return fmt.Errorf("nn: parameter %s missing from stream", p.Name)
		}
	}
	return nil
}
