package wire

// CRC-32 combination by operator, ported from zlib's
// crc32_combine_gen / crc32_combine_op (crc32.c, x2nmodp + multmodp).
//
// A CRC-32 is a polynomial remainder mod P over GF(2), stored bit-
// reflected (x^0 is the top bit). Appending n bytes to a message
// multiplies its remainder by x^(8n), so
//
//	crc(a‖b) = crc(a)·x^(8·len(b)) mod P  xor  crc(b)
//
// and x^(8·len(b)) mod P — the length-operator of b — depends on b's
// length alone: it is computed once when a segment is filled, and each
// request-time combine is one 32-step multiply. (zlib's older
// crc32_combine squares a 32×32 bit matrix per call, two orders of
// magnitude slower per part.)

// poly is the IEEE polynomial, reflected, x^32 implied.
const poly = 0xedb88320

// multmodp returns a(x)·b(x) mod P. a must be non-zero for the early
// exit to fire; the loop is bounded at 32 steps regardless.
func multmodp(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				break
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ poly
		} else {
			b >>= 1
		}
	}
	return p
}

// x2n[k] is x^(2^k) mod P.
var x2n = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	t[0] = p
	for k := 1; k < 32; k++ {
		p = multmodp(p, p)
		t[k] = p
	}
	return t
}()

// crcOp returns the length-operator of an n-byte part, x^(8n) mod P.
// The table index wraps at 32 because x^(2^32) ≡ x^(2^0) mod P.
func crcOp(n int) uint32 {
	p := uint32(1) << 31 // x^0
	for k := uint(3); n != 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = multmodp(x2n[k&31], p)
		}
	}
	return p
}

// crcCombine returns the CRC-32 of a‖b given crc(a), crc(b) and b's
// length-operator.
func crcCombine(crcA, crcB, opB uint32) uint32 {
	return multmodp(opB, crcA) ^ crcB
}
