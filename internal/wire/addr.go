// Package wire provides the packet model shared by the simulator, the
// honeypot collectors, the telescope, and the capture format: IPv4
// addressing and CIDR blocks, transport-level packet records, flow and
// endpoint abstractions (in the spirit of gopacket), and binary
// encoding of Ethernet/IPv4/TCP/UDP frames with correct checksums so
// captures are readable by standard tooling.
package wire

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order. The zero value is
// 0.0.0.0.
type Addr uint32

// ErrBadAddr reports an unparseable IPv4 address or CIDR.
var ErrBadAddr = errors.New("wire: bad IPv4 address")

// AddrFrom4 builds an Addr from four octets (a.b.c.d).
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses dotted-quad notation ("203.0.113.7").
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("%w: %q", ErrBadAddr, s)
	}
	var oct [4]byte
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("%w: %q", ErrBadAddr, s)
		}
		oct[i] = byte(v)
	}
	return AddrFrom4(oct[0], oct[1], oct[2], oct[3]), nil
}

// MustParseAddr is ParseAddr that panics on error; for constants in
// tests and tables.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Octets returns the four dotted-quad octets of a.
func (a Addr) Octets() [4]byte {
	return [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}
}

// Octet returns the i-th octet (0 = most significant). It panics if i
// is outside [0,3].
func (a Addr) Octet(i int) byte {
	if i < 0 || i > 3 {
		panic("wire: octet index out of range")
	}
	return byte(a >> (24 - 8*uint(i)))
}

// String renders dotted-quad notation.
func (a Addr) String() string {
	o := a.Octets()
	return fmt.Sprintf("%d.%d.%d.%d", o[0], o[1], o[2], o[3])
}

// HasOctet reports whether any of the four octets equals v. §4.2 of
// the paper finds scanners avoiding addresses "with a '255' present in
// any octet".
func (a Addr) HasOctet(v byte) bool {
	o := a.Octets()
	return o[0] == v || o[1] == v || o[2] == v || o[3] == v
}

// IsBroadcastStyle reports whether the address ends in .255, the
// "likely reserved for broadcasting purposes" structure of §4.2.
func (a Addr) IsBroadcastStyle() bool { return byte(a) == 255 }

// IsSlash16Start reports whether the address is the first address of
// its /16 (x.B.0.0), the structure Mirai/PonyNet prefer as a first
// scanning target per §4.2.
func (a Addr) IsSlash16Start() bool { return a&0xFFFF == 0 }

// Block is an IPv4 CIDR block.
type Block struct {
	Base Addr // network address (low bits zero)
	Bits int  // prefix length in [0, 32]
}

// ParseBlock parses CIDR notation ("198.51.100.0/24").
func ParseBlock(s string) (Block, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Block{}, fmt.Errorf("%w: missing prefix in %q", ErrBadAddr, s)
	}
	base, err := ParseAddr(s[:slash])
	if err != nil {
		return Block{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Block{}, fmt.Errorf("%w: bad prefix in %q", ErrBadAddr, s)
	}
	b := Block{Base: base, Bits: bits}
	b.Base = base & b.mask()
	return b, nil
}

// MustParseBlock is ParseBlock that panics on error.
func MustParseBlock(s string) Block {
	b, err := ParseBlock(s)
	if err != nil {
		panic(err)
	}
	return b
}

func (b Block) mask() Addr {
	if b.Bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - uint(b.Bits)))
}

// Contains reports whether a lies inside the block.
func (b Block) Contains(a Addr) bool { return a&b.mask() == b.Base }

// Size returns the number of addresses in the block.
func (b Block) Size() int {
	return 1 << (32 - uint(b.Bits))
}

// Nth returns the i-th address of the block (0 = network address). It
// panics if i is outside the block.
func (b Block) Nth(i int) Addr {
	if i < 0 || i >= b.Size() {
		panic(fmt.Sprintf("wire: address %d outside %s", i, b))
	}
	return b.Base + Addr(i)
}

// Index returns the offset of a within the block and whether it is a
// member.
func (b Block) Index(a Addr) (int, bool) {
	if !b.Contains(a) {
		return 0, false
	}
	return int(a - b.Base), true
}

// String renders CIDR notation.
func (b Block) String() string { return fmt.Sprintf("%s/%d", b.Base, b.Bits) }
