//go:build !purego

#include "textflag.h"

// AVX2 add-compare-select for the K=7 Viterbi decoder. Contract (see
// acsColumn): per destination state ns with predecessors s0 = 2·(ns mod 32)
// and s1 = s0+1, c0 = m[s0] + cost[o0] and c1 = m[s1] + cost[o1] with the
// step's cost vector (0, la, lb, la+lb) — la+lb summed once — then the
// survivor is c0 when c0 <= c1 and c1 otherwise (ties to the lowest
// predecessor, NaN to the odd one), and decision bit ns is !(c0 <= c1).
// Only VADDSD/VADDPD do arithmetic, never FMA, so every metric is
// bit-identical to the scalar twin.
//
// Each group of four consecutive k = ns mod 32 shares the eight source
// metrics m[2k..2k+7]; they are split into the even (s0) and odd (s1)
// predecessor vectors once and feed destinations k (input 0) and k+32
// (input 1). VPERMPS gathers each lane's branch cost from the cost
// vector through the acsPerm index table. Loads and stores are
// unaligned. R14/R15 and X15 are avoided (g register and zero register in
// the Go internal ABI).

// ACS_HALF finishes one input bit of a group: E (Y4) and O (Y5) hold the
// even and odd predecessor metrics, Y7 the cost vector. It forms
// c0 = E + cost (Y6) and c1 = O + cost (Y8), the ordered, quiet c0 <= c1
// mask (VCMPPD predicate LE_OQ, Y9), and the survivors (Y10). IDX is the byte
// offset of the even-cost index vector in the perm table (the odd one
// follows), DST the byte offset of the four destination metrics in the
// next-metric buffer and SH the bit position of their decisions.
#define ACS_HALF(IDX, DST, SH) \
	VMOVDQU   IDX(R10), Y6;        \
	VPERMPS   Y7, Y6, Y6;          \
	VADDPD    Y6, Y4, Y6;          \
	VMOVDQU   IDX+32(R10), Y8;     \
	VPERMPS   Y7, Y8, Y8;          \
	VADDPD    Y8, Y5, Y8;          \
	VCMPPD    $0x12, Y8, Y6, Y9;   \
	VBLENDVPD Y9, Y6, Y8, Y10;     \
	VMOVUPD   Y10, DST(R9);        \
	VMOVMSKPD Y9, AX;              \
	SHLQ      $SH, AX;             \
	ORQ       AX, R11

// ACS_GROUP runs group g: SRC is the byte offset of m[8g] (= 64g), IDX
// that of the group's index vectors (= 128g), DST that of next[4g]
// (= 32g) and SH the decision bit 4g. The two 128-bit lane swaps give
// (m0 m1 m4 m5) and (m2 m3 m6 m7); unpacking those gives E = (m0 m2 m4 m6)
// and O = (m1 m3 m5 m7).
#define ACS_GROUP(SRC, IDX, DST, SH) \
	VMOVUPD    SRC(R8), Y0;          \
	VMOVUPD    SRC+32(R8), Y1;       \
	VPERM2F128 $0x20, Y1, Y0, Y2;    \
	VPERM2F128 $0x31, Y1, Y0, Y3;    \
	VUNPCKLPD  Y3, Y2, Y4;           \
	VUNPCKHPD  Y3, Y2, Y5;           \
	ACS_HALF(IDX, DST, SH);          \
	ACS_HALF(IDX+64, DST+256, SH+32)

// func acsAVX2(metric, scratch *[64]float64, llrs *float64, dec *uint64, perm *[8][4][8]uint32, n int)
TEXT ·acsAVX2(SB), NOSPLIT, $0-48
	MOVQ metric+0(FP), R8
	MOVQ scratch+8(FP), R9
	MOVQ llrs+16(FP), SI
	MOVQ dec+24(FP), DI
	MOVQ perm+32(FP), R10
	MOVQ n+40(FP), CX
	VXORPD X11, X11, X11

step:
	// Cost vector Y7 = (0, la, lb, la+lb).
	VMOVSD      0(SI), X2
	VMOVSD      8(SI), X3
	VADDSD      X3, X2, X4
	VUNPCKLPD   X2, X11, X5
	VUNPCKLPD   X4, X3, X6
	VINSERTF128 $1, X6, Y5, Y7
	XORQ        R11, R11

	ACS_GROUP(0, 0, 0, 0)
	ACS_GROUP(64, 128, 32, 4)
	ACS_GROUP(128, 256, 64, 8)
	ACS_GROUP(192, 384, 96, 12)
	ACS_GROUP(256, 512, 128, 16)
	ACS_GROUP(320, 640, 160, 20)
	ACS_GROUP(384, 768, 192, 24)
	ACS_GROUP(448, 896, 224, 28)

	// R11 has a bit per state whose even predecessor survived; the
	// decision word marks the odd survivors.
	NOTQ R11
	MOVQ R11, (DI)
	XCHGQ R8, R9
	ADDQ $16, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  step

	VZEROUPPER
	RET
