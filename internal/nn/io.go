package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// modelMagic identifies the serialised model format ("ECG" + version 1).
var modelMagic = [4]byte{'E', 'C', 'G', 1}

// Save writes the model (kind, dims and all parameters) to w in a compact
// little-endian binary format, so trained models survive process restarts
// and can be shipped between the trainer and downstream inference. The
// format has no head count, so a GAT model is refused.
func (m *Model) Save(w io.Writer) error {
	if m.Kind == KindGAT {
		return fmt.Errorf("nn: the model format cannot hold a GAT model")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(modelMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint8(m.Kind)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(m.Dims))); err != nil {
		return err
	}
	for _, d := range m.Dims {
		if err := binary.Write(bw, binary.LittleEndian, uint32(d)); err != nil {
			return err
		}
	}
	flat := m.FlattenParams()
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(flat))); err != nil {
		return err
	}
	buf := make([]byte, 4)
	for _, v := range flat {
		binary.LittleEndian.PutUint32(buf, math.Float32bits(v))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a model serialised by Save.
func Load(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("nn: read magic: %w", err)
	}
	if magic != modelMagic {
		return nil, fmt.Errorf("nn: bad model magic %v", magic)
	}
	var kind uint8
	if err := binary.Read(br, binary.LittleEndian, &kind); err != nil {
		return nil, err
	}
	if Kind(kind) != KindGCN && Kind(kind) != KindSAGE {
		return nil, fmt.Errorf("nn: unknown model kind %d", kind)
	}
	var nDims uint32
	if err := binary.Read(br, binary.LittleEndian, &nDims); err != nil {
		return nil, err
	}
	if nDims < 2 || nDims > 64 {
		return nil, fmt.Errorf("nn: implausible dim count %d", nDims)
	}
	dims := make([]int, nDims)
	for i := range dims {
		var d uint32
		if err := binary.Read(br, binary.LittleEndian, &d); err != nil {
			return nil, err
		}
		if d == 0 || d > 1<<24 {
			return nil, fmt.Errorf("nn: implausible dim %d", d)
		}
		dims[i] = int(d)
	}
	m := NewModel(Kind(kind), dims, 0)
	var nParams uint64
	if err := binary.Read(br, binary.LittleEndian, &nParams); err != nil {
		return nil, err
	}
	if int(nParams) != m.ParamCount() {
		return nil, fmt.Errorf("nn: parameter count %d does not match dims (want %d)", nParams, m.ParamCount())
	}
	flat := make([]float32, nParams)
	buf := make([]byte, 4)
	for i := range flat {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("nn: read param %d: %w", i, err)
		}
		flat[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf))
	}
	m.SetFlatParams(flat)
	return m, nil
}

// SaveFile writes the model to path, creating or truncating it.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
