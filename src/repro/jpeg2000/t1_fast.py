"""Optimised EBCOT Tier-1 coding, both directions — the refined kernels.

:func:`decode_codeblock_batch` is bit-for-bit equivalent to
:class:`repro.jpeg2000.t1.CodeBlockDecoder` (same coefficients, same
basic-operation count) and is the decode stack's one refined Tier-1
kernel (plan impl ``"batched"``, the default).
:func:`encode_codeblock_batch` is bit-for-bit equivalent to
:class:`repro.jpeg2000.t1.CodeBlockEncoder` (same bytes, pass and
bit-plane counts, op count and pass lengths) and is the encoder's only
Tier-1 path.  The reference coders in ``t1.py`` stay as the readable
specification and as the parity oracles for tests.

What changes relative to the reference, in both directions:

* the MQ coder's register chain (DECODE / EXCHANGE / RENORMD / BYTEIN,
  or ENCODE / RENORME / BYTEOUT) is inlined into the pass loops with
  the registers in local variables — no per-bit attribute traffic;
* context states live in two flat lists instead of objects;
* the per-sample 8-neighbour significance scan is replaced by one packed
  counter per sample (``h | v << 2 | d << 4``), updated incrementally
  each time a sample becomes significant — turning the dominant
  ``neighbour_counts`` cost into a single list read;
* zero-coding contexts come from the precomputed ``context.ZC_LUT``
  table indexed by the packed counter, sign contexts from one packed
  sign-neighbourhood byte per sample;
* each pass's scan-order candidate list is computed with NumPy, and the
  refinement pass's contexts with it; the decoder applies the signs
  vectorised, the encoder reads each plane's bits from NumPy;
* a whole batch of code blocks runs through one shared set of closures
  and reused per-sample scratch buffers — amortising the per-block
  Python overhead that dominates on small blocks (the paper workload's
  32x32 grid produces hundreds of them).

The operation counter keeps the reference semantics exactly: +1 per MQ
decision, +1 per renormalisation shift, so the Fig. 1 / Table 1 cycle
models are unaffected by which kernel codes a block.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .context import CTX_RUN, CTX_UNI, SC_LUT, ZC_LUT
from .mq import QE_TABLE
from .t1 import CodeBlockResult

#: QE_TABLE split into parallel tuples so the common decode path loads
#: only the fields it needs (the Qe probability) instead of unpacking a
#: 4-tuple per decision.
_QE = tuple(row[0] for row in QE_TABLE)
_NMPS = tuple(row[1] for row in QE_TABLE)
_NLPS = tuple(row[2] for row in QE_TABLE)
_SWITCH = tuple(row[3] for row in QE_TABLE)
#: Qe pre-shifted into Chigh position: ``c >> 16 < qe`` is exactly
#: ``c < qe << 16`` (c stays below 2**32), saving a shift per decision.
_QE16 = tuple(q << 16 for q in _QE)

#: For a packed 4-bit column code (bit r = stripe row r), the row
#: indices whose bit is set, in scan order.
_CODE_ROWS = tuple(
    tuple(r for r in range(4) if code & (1 << r)) for code in range(16)
)

#: Neutral value of the packed sign-neighbourhood byte kept by the
#: batched kernel: horizontal contribution + 2 in the low nibble,
#: vertical contribution + 2 in the high nibble (each raw sum is in
#: [-2, 2], so the biased nibbles stay in 0..4 and never borrow/carry).
_HV_NEUTRAL = 0x22

#: Packed sign-neighbourhood byte -> (sign context, xor bit), with the
#: reference's clamp of each contribution to [-1, 1] baked in.  Bytes
#: with a nibble above 4 are unreachable; their entries are padding.
_SC_FULL = tuple(
    SC_LUT[
        (max(-1, min(1, (byte & 15) - 2)) + 1) * 3
        + (max(-1, min(1, (byte >> 4) - 2)) + 1)
    ]
    if (byte & 15) <= 4 and (byte >> 4) <= 4
    else (0, 0)
    for byte in range(256)
)
#: _SC_FULL split into two byte tables (context, xor bit) so the hot
#: path does two O(1) byte reads instead of a tuple unpack.
_SC_CTX = bytes(pair[0] for pair in _SC_FULL)
_SC_XOR = bytes(pair[1] for pair in _SC_FULL)


@lru_cache(maxsize=None)
def _edge_flags(w: int, h: int) -> bytes:
    """Per-sample boundary byte: bit 0 = no left neighbour, bit 1 = no
    right, bit 2 = no up, bit 3 = no down.  Zero for interior samples,
    which lets the significance propagation skip all four edge tests."""
    e = np.zeros((h, w), dtype=np.uint8)
    e[:, 0] |= 1
    e[:, -1] |= 2
    e[0, :] |= 4
    e[-1, :] |= 8
    return bytes(e.ravel())

@lru_cache(maxsize=None)
def _scan_layout(w: int, h: int):
    """Stripe table and scan-order index permutation for a block shape.

    Returns ``(stripes, order)`` where ``stripes`` is a tuple of
    ``(stripe_top, stripe_rows, base)`` and ``order`` is the flat sample
    indices in EBCOT scan order (stripe-major, then column, then row).
    """
    stripes = []
    for top in range(0, h, 4):
        rows = 4 if top + 4 <= h else h - top
        stripes.append((top, rows, top * w))
    cols = np.arange(w, dtype=np.intp)[:, None]
    order = np.concatenate([
        (base + cols + np.arange(rows, dtype=np.intp)[None, :] * w).ravel()
        for top, rows, base in stripes
    ])
    return tuple(stripes), order


def _column_codes(mask: np.ndarray, w: int, h: int) -> bytearray:
    """Pack a flat boolean sample mask into per-column stripe codes.

    Output byte ``s * w + x`` has bit ``r`` set iff ``mask`` is true at
    stripe ``s``, column ``x``, stripe row ``r``.
    """
    full = h & ~3
    parts = []
    if full:
        m = mask[: full * w].reshape(-1, 4, w).astype(np.uint8)
        parts.append(m[:, 0] | (m[:, 1] << 1) | (m[:, 2] << 2) | (m[:, 3] << 3))
    tail = h - full
    if tail:
        t = mask[full * w:].reshape(tail, w).astype(np.uint8)
        code = t[0].copy()
        for r in range(1, tail):
            code |= t[r] << r
        parts.append(code.reshape(1, w))
    return bytearray(np.concatenate(parts).tobytes())


#: Blocks with more bit planes than this have magnitudes that do not fit
#: an ``int32`` coefficient array.
MAX_INT32_BITPLANES = 30


def batch_dtype(bitplanes) -> type:
    """The narrowest flat-output dtype for blocks with these bit-plane
    counts: ``int32``, or ``int64`` once any block exceeds 30 planes."""
    return np.int64 if max(bitplanes, default=0) > MAX_INT32_BITPLANES else np.int32


#: A batched decode task: (data, width, height, orientation,
#: num_bitplanes, num_passes, out_offset).  ``out_offset`` is the block's
#: first sample in the flat output array, so a whole chunk lands in one
#: coefficient buffer without intermediate lists.
BatchBlock = tuple


def decode_codeblock_batch(blocks: Sequence[BatchBlock], out=None):
    """Decode a chunk of code blocks through one shared kernel instance.

    Bit-for-bit identical to running the reference
    :class:`~repro.jpeg2000.t1.CodeBlockDecoder` on each block (same
    coefficients, same per-block op counts), but the MQ decoder, the
    pass closures, and the per-sample scratch buffers are built once per
    *batch* instead of once per *block*, and the final sign application
    runs vectorised.

    ``out`` is a flat 1-D integer array that every block writes into at
    its ``out_offset``; when ``None`` a fresh array sized to the batch
    is allocated, with blocks laid end to end at their offsets.  A fresh
    array is ``int32`` unless some block has more than 30 bit planes, in
    which case it is ``int64`` (magnitudes of 2**31 and beyond do not
    fit ``int32``); a caller-supplied array narrower than 64 bits
    rejects such a block with ``ValueError``.

    Returns ``(out, ops)`` where ``ops[i]`` is block *i*'s basic-op
    count.
    """
    if out is None:
        total = 0
        for block in blocks:
            offset_end = block[6] + block[1] * block[2]
            total = offset_end if offset_end > total else total
        out = np.zeros(total, dtype=batch_dtype(block[4] for block in blocks))
    wide = out.dtype.itemsize >= 8

    qe_tab = _QE
    qe16_tab = _QE16
    nmps_tab = _NMPS
    nlps_tab = _NLPS
    switch_tab = _SWITCH
    sc_ctx = _SC_CTX
    sc_xor = _SC_XOR

    # Scratch buffers sized to the largest block of the batch, re-zeroed
    # per block — the kernels only ever touch the first ``size`` bytes.
    # The NumPy views alias the bytearrays (same memory) so the pass
    # planners below can reduce coding state without copying it.
    max_size = 0
    for block in blocks:
        size = block[1] * block[2]
        max_size = size if size > max_size else max_size
    sigma = bytearray(max_size)
    visited = bytearray(max_size)
    refined = bytearray(max_size)
    sign = bytearray(max_size)
    nb = bytearray(max_size)
    hv = bytearray(bytes([_HV_NEUTRAL]) * max_size)
    zero_fill = bytes(max_size)
    hv_fill = bytes(hv)
    sig_np = np.frombuffer(sigma, dtype=np.uint8)
    vis_np = np.frombuffer(visited, dtype=np.uint8)
    ref_np = np.frombuffer(refined, dtype=np.uint8)
    nb_np = np.frombuffer(nb, dtype=np.uint8)
    cx_index = [0] * 19
    cx_mps = [0] * 19

    # Per-block state the closures read; rebound in the block loop.
    data = b""
    length = 0
    w = h = 0
    size = 0
    edge = b""
    zc = ZC_LUT["LL"]
    magnitude: list = []
    stripes: tuple = ()
    order: np.ndarray = np.empty(0, dtype=np.intp)
    a = c = ct = bp = ops = 0

    def mq_decode(k: int) -> int:
        # The reference MqDecoder's DECODE decision path, with Qe
        # pre-shifted into Chigh position — op parity depends on it.
        nonlocal a, c, ct, bp, ops
        i = cx_index[k]
        qe = qe_tab[i]
        qe16 = qe16_tab[i]
        ops += 1
        a -= qe
        if c < qe16:
            if a < qe:
                bit = cx_mps[k]
                cx_index[k] = nmps_tab[i]
            else:
                bit = 1 - cx_mps[k]
                if switch_tab[i]:
                    cx_mps[k] = bit
                cx_index[k] = nlps_tab[i]
            a = qe
        else:
            c -= qe16
            if a & 0x8000:
                return cx_mps[k]
            if a < qe:
                bit = 1 - cx_mps[k]
                if switch_tab[i]:
                    cx_mps[k] = bit
                cx_index[k] = nlps_tab[i]
            else:
                bit = cx_mps[k]
                cx_index[k] = nmps_tab[i]
        while True:
            if ct == 0:
                byte = data[bp] if bp < length else 0xFF
                if byte == 0xFF:
                    if (data[bp + 1] if bp + 1 < length else 0xFF) > 0x8F:
                        c += 0xFF00
                        ct = 8
                    else:
                        bp += 1
                        c += (data[bp] if bp < length else 0xFF) << 9
                        ct = 7
                else:
                    bp += 1
                    c += (data[bp] if bp < length else 0xFF) << 8
                    ct = 8
            a = (a << 1) & 0xFFFF
            c = (c << 1) & 0xFFFFFFFF
            ct -= 1
            ops += 1
            if a & 0x8000:
                break
        return bit

    def make_significant(idx, la, lc, lct, lbp, lops):
        # Fused set-significant + sign decode (the two always run as a
        # pair).  The MQ registers travel as arguments and return value
        # — never through the closure cells — so the pass loops keep
        # them in locals across significance events.  The sign context
        # comes from one lookup on the packed sign-neighbourhood byte
        # ``hv[idx]``, maintained incrementally below: a sample pushes
        # its +/-1 contribution to its four h/v neighbours the moment
        # its own sign is decoded — exactly when the reference's live
        # neighbour scan would start seeing it (set-significant and
        # sign decode of one sample are adjacent; no other sample's
        # sign decode can interleave).
        sigma[idx] = 1
        e = edge[idx]
        if e == 0:
            jup = idx - w
            jdn = idx + w
            nb[idx - 1] += 1
            nb[idx + 1] += 1
            nb[jup] += 4
            nb[jup - 1] += 16
            nb[jup + 1] += 16
            nb[jdn] += 4
            nb[jdn - 1] += 16
            nb[jdn + 1] += 16
        else:
            left = not e & 1
            right = not e & 2
            if left:
                nb[idx - 1] += 1
            if right:
                nb[idx + 1] += 1
            if not e & 4:
                j = idx - w
                nb[j] += 4
                if left:
                    nb[j - 1] += 16
                if right:
                    nb[j + 1] += 16
            if not e & 8:
                j = idx + w
                nb[j] += 4
                if left:
                    nb[j - 1] += 16
                if right:
                    nb[j + 1] += 16
        hvb = hv[idx]
        ctx = sc_ctx[hvb]
        xor_bit = sc_xor[hvb]
        # Fully inlined MQ decision (see significance_pass).
        i = cx_index[ctx]
        qe = qe_tab[i]
        aa = la - qe
        q16 = qe16_tab[i]
        if aa & 0x8000 and lc >= q16:
            la = aa
            lc -= q16
            lops += 1
            s = cx_mps[ctx] ^ xor_bit
        else:
            lops += 1
            if lc < q16:
                if aa < qe:
                    bit = cx_mps[ctx]
                    cx_index[ctx] = nmps_tab[i]
                else:
                    bit = 1 - cx_mps[ctx]
                    if switch_tab[i]:
                        cx_mps[ctx] = bit
                    cx_index[ctx] = nlps_tab[i]
                la = qe
            else:
                lc -= q16
                if aa < qe:
                    bit = 1 - cx_mps[ctx]
                    if switch_tab[i]:
                        cx_mps[ctx] = bit
                    cx_index[ctx] = nlps_tab[i]
                else:
                    bit = cx_mps[ctx]
                    cx_index[ctx] = nmps_tab[i]
                la = aa
            while la < 0x8000:
                if lct == 0:
                    byte = data[lbp] if lbp < length else 0xFF
                    if byte == 0xFF:
                        if (data[lbp + 1] if lbp + 1 < length
                                else 0xFF) > 0x8F:
                            lc += 0xFF00
                            lct = 8
                        else:
                            lbp += 1
                            lc += (data[lbp] if lbp < length else 0xFF) << 9
                            lct = 7
                    else:
                        lbp += 1
                        lc += (data[lbp] if lbp < length else 0xFF) << 8
                        lct = 8
                la <<= 1
                lc = (lc << 1) & 0xFFFFFFFF
                lct -= 1
                lops += 1
            s = bit ^ xor_bit
        sign[idx] = s
        delta_h = -1 if s else 1
        delta_v = -16 if s else 16
        if e == 0:
            hv[idx - 1] += delta_h
            hv[idx + 1] += delta_h
            hv[jup] += delta_v
            hv[jdn] += delta_v
        else:
            if not e & 1:
                hv[idx - 1] += delta_h
            if not e & 2:
                hv[idx + 1] += delta_h
            if not e & 4:
                hv[idx - w] += delta_v
            if not e & 8:
                hv[idx + w] += delta_v
        return la, lc, lct, lbp, lops

    def significance_pass(bit_mask: int) -> None:
        # A sample only becomes significant at its own examination, and
        # the scan examines each position once — so every sample that is
        # insignificant at pass entry is still insignificant when the
        # scan reaches it, and samples significant at entry are skipped
        # outright.  The scan-order candidate list {not significant at
        # pass entry} is therefore exact and can be extracted with
        # NumPy; only the neighbour-count gate (which changes mid-pass)
        # stays a live per-sample read.  The whole MQ decision —
        # MPS-no-renormalisation fast case AND the exchange/renorm slow
        # case — is inlined with the register state held in locals;
        # ``make_significant`` takes and returns the registers, so they
        # never touch the closure cells inside the loop.
        nonlocal a, c, ct, bp, ops
        vis, counts, mag = visited, nb, magnitude
        lut = zc
        qe_t, qe16_t, cxi, cxm = qe_tab, qe16_tab, cx_index, cx_mps
        nmps_t, nlps_t, sw_t = nmps_tab, nlps_tab, switch_tab
        dat, dlen = data, length
        la, lc, lct, lbp, lops = a, c, ct, bp, ops
        cand = order[sig_np[order] == 0]
        for idx in cand.tolist():
            packed = counts[idx]
            if packed:
                vis[idx] = 1
                k = lut[packed]
                i = cxi[k]
                qe = qe_t[i]
                aa = la - qe
                q16 = qe16_t[i]
                if aa & 0x8000 and lc >= q16:
                    la = aa
                    lc -= q16
                    lops += 1
                    bit = cxm[k]
                else:
                    lops += 1
                    if lc < q16:
                        if aa < qe:
                            bit = cxm[k]
                            cxi[k] = nmps_t[i]
                        else:
                            bit = 1 - cxm[k]
                            if sw_t[i]:
                                cxm[k] = bit
                            cxi[k] = nlps_t[i]
                        la = qe
                    else:
                        lc -= q16
                        if aa < qe:
                            bit = 1 - cxm[k]
                            if sw_t[i]:
                                cxm[k] = bit
                            cxi[k] = nlps_t[i]
                        else:
                            bit = cxm[k]
                            cxi[k] = nmps_t[i]
                        la = aa
                    while la < 0x8000:
                        if lct == 0:
                            byte = dat[lbp] if lbp < dlen else 0xFF
                            if byte == 0xFF:
                                if (dat[lbp + 1] if lbp + 1 < dlen
                                        else 0xFF) > 0x8F:
                                    lc += 0xFF00
                                    lct = 8
                                else:
                                    lbp += 1
                                    lc += (dat[lbp] if lbp < dlen
                                           else 0xFF) << 9
                                    lct = 7
                            else:
                                lbp += 1
                                lc += (dat[lbp] if lbp < dlen else 0xFF) << 8
                                lct = 8
                        la <<= 1
                        lc = (lc << 1) & 0xFFFFFFFF
                        lct -= 1
                        lops += 1
                if bit:
                    mag[idx] |= bit_mask
                    la, lc, lct, lbp, lops = make_significant(
                        idx, la, lc, lct, lbp, lops
                    )
        a, c, ct, bp, ops = la, lc, lct, lbp, lops

    def refinement_pass(bit_mask: int) -> None:
        # The candidate set {significant and not visited} is frozen for
        # the whole pass (nothing the pass writes feeds back into it),
        # so the exact scan-order candidate list and each candidate's
        # context can be computed up front with NumPy; the serial MQ
        # decisions then run over just those samples.
        mag = magnitude
        cand_mask = (sig_np[:size] != 0) & (vis_np[:size] == 0)
        cand = order[cand_mask[order]]
        if not cand.size:
            return
        ks = np.where(
            ref_np[cand] != 0, 16, np.where(nb_np[cand] != 0, 15, 14)
        )
        nonlocal a, c, ct, bp, ops
        qe_t, qe16_t, cxi, cxm = qe_tab, qe16_tab, cx_index, cx_mps
        nmps_t, nlps_t, sw_t = nmps_tab, nlps_tab, switch_tab
        dat, dlen = data, length
        la, lc, lct, lbp, lops = a, c, ct, bp, ops
        for idx, k in zip(cand.tolist(), ks.tolist()):
            # Fully inlined MQ decision, all-local registers (see
            # significance_pass); no sign decode here, so the loop never
            # touches the closure cells.
            i = cxi[k]
            qe = qe_t[i]
            aa = la - qe
            q16 = qe16_t[i]
            if aa & 0x8000 and lc >= q16:
                la = aa
                lc -= q16
                lops += 1
                bit = cxm[k]
            else:
                lops += 1
                if lc < q16:
                    if aa < qe:
                        bit = cxm[k]
                        cxi[k] = nmps_t[i]
                    else:
                        bit = 1 - cxm[k]
                        if sw_t[i]:
                            cxm[k] = bit
                        cxi[k] = nlps_t[i]
                    la = qe
                else:
                    lc -= q16
                    if aa < qe:
                        bit = 1 - cxm[k]
                        if sw_t[i]:
                            cxm[k] = bit
                        cxi[k] = nlps_t[i]
                    else:
                        bit = cxm[k]
                        cxi[k] = nmps_t[i]
                    la = aa
                while la < 0x8000:
                    if lct == 0:
                        byte = dat[lbp] if lbp < dlen else 0xFF
                        if byte == 0xFF:
                            if (dat[lbp + 1] if lbp + 1 < dlen
                                    else 0xFF) > 0x8F:
                                lc += 0xFF00
                                lct = 8
                            else:
                                lbp += 1
                                lc += (dat[lbp] if lbp < dlen else 0xFF) << 9
                                lct = 7
                        else:
                            lbp += 1
                            lc += (dat[lbp] if lbp < dlen else 0xFF) << 8
                            lct = 8
                    la <<= 1
                    lc = (lc << 1) & 0xFFFFFFFF
                    lct -= 1
                    lops += 1
            if bit:
                mag[idx] |= bit_mask
        a, c, ct, bp, ops = la, lc, lct, lbp, lops
        ref_np[cand] = 1

    def cleanup_pass(bit_mask: int) -> None:
        # The examinee set {neither significant nor visited at pass
        # entry} is static during the pass: visited is never written
        # here, and a sample's own significance only changes at its own
        # examination (after which the scan has moved past it).  Packing
        # it into per-column 4-bit codes lets the scan skip exhausted
        # columns and dead rows; neighbour counts are still read live,
        # exactly like the reference.
        nonlocal a, c, ct, bp, ops
        counts, mag = nb, magnitude
        dec, lut = mq_decode, zc
        qe_t, qe16_t, cxi, cxm = qe_tab, qe16_tab, cx_index, cx_mps
        nmps_t, nlps_t, sw_t = nmps_tab, nlps_tab, switch_tab
        dat, dlen = data, length
        exam = (sig_np[:size] == 0) & (vis_np[:size] == 0)
        codes = _column_codes(exam, w, h)
        rows_for = _CODE_ROWS
        ci = 0
        la, lc, lct, lbp, lops = a, c, ct, bp, ops
        for stripe_top, stripe_rows, base in stripes:
            for x in range(w):
                code = codes[ci]
                ci += 1
                if not code:
                    continue
                top = base + x
                start_row = 0
                if code == 15:
                    i1 = top + w
                    i2 = i1 + w
                    i3 = i2 + w
                    if not (counts[top] or counts[i1] or counts[i2]
                            or counts[i3]):
                        # Run mode goes through the closures; round-trip
                        # the local registers around it.
                        a, c, ct, bp, ops = la, lc, lct, lbp, lops
                        if not dec(CTX_RUN):
                            la, lc, lct, lbp, lops = a, c, ct, bp, ops
                            continue
                        first_one = (dec(CTX_UNI) << 1) | dec(CTX_UNI)
                        idx = top + first_one * w
                        mag[idx] |= bit_mask
                        la, lc, lct, lbp, lops = make_significant(
                            idx, a, c, ct, bp, ops
                        )
                        start_row = first_one + 1
                for row in rows_for[code]:
                    if row < start_row:
                        continue
                    idx = top + row * w
                    # Fully inlined MQ decision, all-local registers
                    # (see significance_pass).
                    k = lut[counts[idx]]
                    i = cxi[k]
                    qe = qe_t[i]
                    aa = la - qe
                    q16 = qe16_t[i]
                    if aa & 0x8000 and lc >= q16:
                        la = aa
                        lc -= q16
                        lops += 1
                        bit = cxm[k]
                    else:
                        lops += 1
                        if lc < q16:
                            if aa < qe:
                                bit = cxm[k]
                                cxi[k] = nmps_t[i]
                            else:
                                bit = 1 - cxm[k]
                                if sw_t[i]:
                                    cxm[k] = bit
                                cxi[k] = nlps_t[i]
                            la = qe
                        else:
                            lc -= q16
                            if aa < qe:
                                bit = 1 - cxm[k]
                                if sw_t[i]:
                                    cxm[k] = bit
                                cxi[k] = nlps_t[i]
                            else:
                                bit = cxm[k]
                                cxi[k] = nmps_t[i]
                            la = aa
                        while la < 0x8000:
                            if lct == 0:
                                byte = dat[lbp] if lbp < dlen else 0xFF
                                if byte == 0xFF:
                                    if (dat[lbp + 1] if lbp + 1 < dlen
                                            else 0xFF) > 0x8F:
                                        lc += 0xFF00
                                        lct = 8
                                    else:
                                        lbp += 1
                                        lc += (dat[lbp] if lbp < dlen
                                               else 0xFF) << 9
                                        lct = 7
                                else:
                                    lbp += 1
                                    lc += (dat[lbp] if lbp < dlen
                                           else 0xFF) << 8
                                    lct = 8
                            la <<= 1
                            lc = (lc << 1) & 0xFFFFFFFF
                            lct -= 1
                            lops += 1
                    if bit:
                        mag[idx] |= bit_mask
                        la, lc, lct, lbp, lops = make_significant(
                            idx, la, lc, lct, lbp, lops
                        )
        a, c, ct, bp, ops = la, lc, lct, lbp, lops

    op_counts: list[int] = []
    for block_data, width, height, orientation, num_bitplanes, num_passes, offset in blocks:
        if width < 1 or height < 1:
            raise ValueError("code block dimensions must be positive")
        if orientation not in ZC_LUT:
            raise ValueError(f"unknown subband orientation {orientation!r}")
        if num_bitplanes > MAX_INT32_BITPLANES and not wide:
            raise ValueError(
                f"a block with {num_bitplanes} bit planes needs an int64 "
                f"output array, got {out.dtype}"
            )
        size = width * height
        if num_bitplanes == 0:
            out[offset:offset + size] = 0
            op_counts.append(0)
            continue

        data = block_data
        length = len(data)
        w, h = width, height
        edge = _edge_flags(w, h)
        zc = ZC_LUT[orientation]
        stripes, order = _scan_layout(w, h)
        sigma[:size] = zero_fill[:size]
        visited[:size] = zero_fill[:size]
        refined[:size] = zero_fill[:size]
        sign[:size] = zero_fill[:size]
        nb[:size] = zero_fill[:size]
        hv[:size] = hv_fill[:size]
        magnitude = [0] * size
        cx_index[:] = (0,) * 19
        cx_mps[:] = (0,) * 19
        cx_index[0] = 4
        cx_index[CTX_RUN] = 3
        cx_index[CTX_UNI] = 46

        # INITDEC (the reference MqDecoder's initialisation).
        c = (data[0] if length > 0 else 0xFF) << 16
        bp = 0
        if (data[0] if length > 0 else 0xFF) == 0xFF:
            if (data[1] if length > 1 else 0xFF) > 0x8F:
                c += 0xFF00
                ct = 8
            else:
                bp = 1
                c += (data[1] if length > 1 else 0xFF) << 9
                ct = 7
        else:
            bp = 1
            c += (data[1] if length > 1 else 0xFF) << 8
            ct = 8
        c <<= 7
        ct -= 7
        a = 0x8000
        ops = 0

        passes_done = 0
        passes_limit = (
            num_passes if num_passes is not None else 3 * num_bitplanes - 2
        )
        for plane in range(num_bitplanes - 1, -1, -1):
            bit_mask = 1 << plane
            if plane != num_bitplanes - 1:
                if passes_done >= passes_limit:
                    break
                significance_pass(bit_mask)
                passes_done += 1
                if passes_done >= passes_limit:
                    break
                refinement_pass(bit_mask)
                passes_done += 1
            if passes_done >= passes_limit:
                break
            cleanup_pass(bit_mask)
            passes_done += 1
            visited[:size] = zero_fill[:size]

        values = np.array(magnitude, dtype=np.int64)
        signs = np.frombuffer(sign, dtype=np.uint8, count=size)
        np.negative(values, out=values, where=signs.astype(bool))
        out[offset:offset + size] = values
        op_counts.append(ops)

    return out, op_counts


#: For an A register value below 0x8000 (the only values RENORME ever
#: sees), the number of left shifts that bring its top bit to 0x8000 —
#: the RENORME loop's trip count, so it can shift in one step between
#: byte emissions.
_RENORM_SHIFTS = bytes(16 - a.bit_length() for a in range(0x8000))

#: A batched encode task: (coefficients, width, height, orientation),
#: where ``coefficients`` is any integer array-like holding the block's
#: ``width * height`` signed samples in row-major order.
EncodeBlock = tuple


def encode_codeblock_batch(blocks: Sequence[EncodeBlock]) -> list:
    """Encode a batch of code blocks through one shared kernel instance.

    Bit-for-bit identical to running the reference
    :class:`~repro.jpeg2000.t1.CodeBlockEncoder` on each block: the
    same codeword bytes, pass count, bit-plane count, op count and
    per-pass truncation lengths.  It mirrors
    :func:`decode_codeblock_batch` — packed neighbour counters, packed
    sign bytes, scan-order candidate lists computed with NumPy, the MQ
    decision inlined into the pass loops with its registers in locals,
    closures and scratch buffers built once per batch — and adds what
    only an encoder knows up front: each plane's bits, read from NumPy
    (``(magnitude >> plane) & 1``).  RENORME shifts in one step between
    byte emissions instead of one bit at a time.

    Coefficients are read as ``int64``, so magnitudes must stay below
    2**63 (the reference takes any Python integer).  Returns one
    :class:`~repro.jpeg2000.t1.CodeBlockResult` per block, in input
    order.
    """
    prepared = []
    max_size = 0
    for coefficients, width, height, orientation in blocks:
        values = np.asarray(coefficients, dtype=np.int64).reshape(-1)
        if values.size != width * height:
            raise ValueError("coefficient count does not match block dimensions")
        if width < 1 or height < 1:
            raise ValueError("code block dimensions must be positive")
        if orientation not in ZC_LUT:
            raise ValueError(f"unknown subband orientation {orientation!r}")
        prepared.append((values, width, height, orientation))
        max_size = values.size if values.size > max_size else max_size

    qe_tab = _QE
    nmps_tab = _NMPS
    nlps_tab = _NLPS
    switch_tab = _SWITCH
    shifts = _RENORM_SHIFTS
    sc_ctx = _SC_CTX
    sc_xor = _SC_XOR

    # Scratch buffers sized to the largest block of the batch, re-zeroed
    # per block; the NumPy views alias the bytearrays (see
    # decode_codeblock_batch).
    sigma = bytearray(max_size)
    visited = bytearray(max_size)
    refined = bytearray(max_size)
    nb = bytearray(max_size)
    hv = bytearray(bytes([_HV_NEUTRAL]) * max_size)
    zero_fill = bytes(max_size)
    hv_fill = bytes(hv)
    sig_np = np.frombuffer(sigma, dtype=np.uint8)
    vis_np = np.frombuffer(visited, dtype=np.uint8)
    ref_np = np.frombuffer(refined, dtype=np.uint8)
    nb_np = np.frombuffer(nb, dtype=np.uint8)
    cx_index = [0] * 19
    cx_mps = [0] * 19
    # MQ output; byte 0 is the reference's sentinel, dropped at flush.
    out = bytearray(1)

    # Per-block state the closures read; rebound in the block loop.
    w = h = 0
    size = 0
    edge = b""
    sign = b""
    zc = ZC_LUT["LL"]
    stripes: tuple = ()
    order: np.ndarray = np.empty(0, dtype=np.intp)
    a = c = ct = ops = 0

    def byte_out(lc):
        # BYTEOUT, with carry propagation and 0xFF bit stuffing; returns
        # the new (C, CT).
        last = out[-1]
        if last == 0xFF:
            out.append((lc >> 20) & 0xFF)
            return lc & 0xFFFFF, 7
        if lc < 0x8000000:
            out.append((lc >> 19) & 0xFF)
            return lc & 0x7FFFF, 8
        last += 1
        out[-1] = last
        if last == 0xFF:
            lc &= 0x7FFFFFF
            out.append((lc >> 20) & 0xFF)
            return lc & 0xFFFFF, 7
        out.append((lc >> 19) & 0xFF)
        return lc & 0x7FFFF, 8

    def mq_encode(bit, k, la, lc, lct, lops):
        # ENCODE for the rarer decisions (run-mode interruptions and
        # their uniform-context position bits); the pass loops inline
        # the same code.  Registers travel as arguments and results.
        i = cx_index[k]
        qe = qe_tab[i]
        la -= qe
        lops += 1
        if bit == cx_mps[k]:
            if la & 0x8000:
                return la, lc + qe, lct, lops
            if la < qe:
                la = qe
            else:
                lc += qe
            cx_index[k] = nmps_tab[i]
        else:
            if la < qe:
                lc += qe
            else:
                la = qe
            if switch_tab[i]:
                cx_mps[k] = bit
            cx_index[k] = nlps_tab[i]
        n = shifts[la]
        lops += n
        while n >= lct:
            la <<= lct
            lc <<= lct
            n -= lct
            lc, lct = byte_out(lc)
        return la << n, lc << n, lct - n, lops

    def make_significant(idx, la, lc, lct, lops):
        # Set-significant plus sign coding, the encoder twin of the
        # decoder's make_significant: bump the packed neighbour counters,
        # code the sign in the context of the packed sign byte, then
        # push this sample's sign contribution to its h/v neighbours.
        sigma[idx] = 1
        e = edge[idx]
        if e == 0:
            jup = idx - w
            jdn = idx + w
            nb[idx - 1] += 1
            nb[idx + 1] += 1
            nb[jup] += 4
            nb[jup - 1] += 16
            nb[jup + 1] += 16
            nb[jdn] += 4
            nb[jdn - 1] += 16
            nb[jdn + 1] += 16
        else:
            left = not e & 1
            right = not e & 2
            if left:
                nb[idx - 1] += 1
            if right:
                nb[idx + 1] += 1
            if not e & 4:
                j = idx - w
                nb[j] += 4
                if left:
                    nb[j - 1] += 16
                if right:
                    nb[j + 1] += 16
            if not e & 8:
                j = idx + w
                nb[j] += 4
                if left:
                    nb[j - 1] += 16
                if right:
                    nb[j + 1] += 16
        hvb = hv[idx]
        k = sc_ctx[hvb]
        s = sign[idx]
        bit = s ^ sc_xor[hvb]
        i = cx_index[k]
        qe = qe_tab[i]
        la -= qe
        lops += 1
        if bit == cx_mps[k] and la & 0x8000:
            lc += qe
        else:
            if bit == cx_mps[k]:
                if la < qe:
                    la = qe
                else:
                    lc += qe
                cx_index[k] = nmps_tab[i]
            else:
                if la < qe:
                    lc += qe
                else:
                    la = qe
                if switch_tab[i]:
                    cx_mps[k] = bit
                cx_index[k] = nlps_tab[i]
            n = shifts[la]
            lops += n
            while n >= lct:
                la <<= lct
                lc <<= lct
                n -= lct
                lc, lct = byte_out(lc)
            la <<= n
            lc <<= n
            lct -= n
        delta_h = -1 if s else 1
        delta_v = -16 if s else 16
        if e == 0:
            hv[idx - 1] += delta_h
            hv[idx + 1] += delta_h
            hv[jup] += delta_v
            hv[jdn] += delta_v
        else:
            if not e & 1:
                hv[idx - 1] += delta_h
            if not e & 2:
                hv[idx + 1] += delta_h
            if not e & 4:
                hv[idx - w] += delta_v
            if not e & 8:
                hv[idx + w] += delta_v
        return la, lc, lct, lops

    def significance_pass(bits: bytes) -> None:
        # Candidates as in the decoder: every sample insignificant at
        # pass entry, in scan order; the live neighbour counter gates
        # each one.
        nonlocal a, c, ct, ops
        vis, counts, lut = visited, nb, zc
        qe_t, cxi, cxm = qe_tab, cx_index, cx_mps
        nmps_t, nlps_t, sw_t = nmps_tab, nlps_tab, switch_tab
        sh, bout = shifts, byte_out
        la, lc, lct, lops = a, c, ct, ops
        for idx in order[sig_np[order] == 0].tolist():
            packed = counts[idx]
            if packed:
                vis[idx] = 1
                k = lut[packed]
                bit = bits[idx]
                i = cxi[k]
                qe = qe_t[i]
                la -= qe
                lops += 1
                if bit == cxm[k] and la & 0x8000:
                    lc += qe
                else:
                    if bit == cxm[k]:
                        if la < qe:
                            la = qe
                        else:
                            lc += qe
                        cxi[k] = nmps_t[i]
                    else:
                        if la < qe:
                            lc += qe
                        else:
                            la = qe
                        if sw_t[i]:
                            cxm[k] = bit
                        cxi[k] = nlps_t[i]
                    n = sh[la]
                    lops += n
                    while n >= lct:
                        la <<= lct
                        lc <<= lct
                        n -= lct
                        lc, lct = bout(lc)
                    la <<= n
                    lc <<= n
                    lct -= n
                if bit:
                    la, lc, lct, lops = make_significant(idx, la, lc, lct, lops)
        a, c, ct, ops = la, lc, lct, lops

    def refinement_pass(plane_bits: np.ndarray) -> None:
        # Candidates, contexts and bits are all frozen for the pass, so
        # the whole decision list is computed up front with NumPy.
        cand_mask = (sig_np[:size] != 0) & (vis_np[:size] == 0)
        cand = order[cand_mask[order]]
        if not cand.size:
            return
        ks = np.where(
            ref_np[cand] != 0, 16, np.where(nb_np[cand] != 0, 15, 14)
        )
        nonlocal a, c, ct, ops
        qe_t, cxi, cxm = qe_tab, cx_index, cx_mps
        nmps_t, nlps_t, sw_t = nmps_tab, nlps_tab, switch_tab
        sh, bout = shifts, byte_out
        la, lc, lct, lops = a, c, ct, ops
        for k, bit in zip(ks.tolist(), plane_bits[cand].tolist()):
            i = cxi[k]
            qe = qe_t[i]
            la -= qe
            lops += 1
            if bit == cxm[k] and la & 0x8000:
                lc += qe
                continue
            if bit == cxm[k]:
                if la < qe:
                    la = qe
                else:
                    lc += qe
                cxi[k] = nmps_t[i]
            else:
                if la < qe:
                    lc += qe
                else:
                    la = qe
                if sw_t[i]:
                    cxm[k] = bit
                cxi[k] = nlps_t[i]
            n = sh[la]
            lops += n
            while n >= lct:
                la <<= lct
                lc <<= lct
                n -= lct
                lc, lct = bout(lc)
            la <<= n
            lc <<= n
            lct -= n
        a, c, ct, ops = la, lc, lct, lops
        ref_np[cand] = 1

    def cleanup_pass(bits: bytes) -> None:
        # Examinees packed into per-column codes, as in the decoder.
        nonlocal a, c, ct, ops
        counts, lut, enc = nb, zc, mq_encode
        qe_t, cxi, cxm = qe_tab, cx_index, cx_mps
        nmps_t, nlps_t, sw_t = nmps_tab, nlps_tab, switch_tab
        sh, bout = shifts, byte_out
        exam = (sig_np[:size] == 0) & (vis_np[:size] == 0)
        codes = _column_codes(exam, w, h)
        rows_for = _CODE_ROWS
        ci = 0
        la, lc, lct, lops = a, c, ct, ops
        for stripe_top, stripe_rows, base in stripes:
            for x in range(w):
                code = codes[ci]
                ci += 1
                if not code:
                    continue
                top = base + x
                start_row = 0
                if code == 15:
                    i1 = top + w
                    i2 = i1 + w
                    i3 = i2 + w
                    if not (counts[top] or counts[i1] or counts[i2]
                            or counts[i3]):
                        if bits[top]:
                            first_one = 0
                        elif bits[i1]:
                            first_one = 1
                        elif bits[i2]:
                            first_one = 2
                        elif bits[i3]:
                            first_one = 3
                        else:
                            # An all-zero column: one run-context 0,
                            # nearly always the MPS without renormalising.
                            i = cxi[CTX_RUN]
                            qe = qe_t[i]
                            if cxm[CTX_RUN] == 0 and (la - qe) & 0x8000:
                                la -= qe
                                lc += qe
                                lops += 1
                            else:
                                la, lc, lct, lops = enc(
                                    0, CTX_RUN, la, lc, lct, lops
                                )
                            continue
                        la, lc, lct, lops = enc(1, CTX_RUN, la, lc, lct, lops)
                        la, lc, lct, lops = enc(
                            first_one >> 1, CTX_UNI, la, lc, lct, lops
                        )
                        la, lc, lct, lops = enc(
                            first_one & 1, CTX_UNI, la, lc, lct, lops
                        )
                        la, lc, lct, lops = make_significant(
                            top + first_one * w, la, lc, lct, lops
                        )
                        start_row = first_one + 1
                for row in rows_for[code]:
                    if row < start_row:
                        continue
                    idx = top + row * w
                    k = lut[counts[idx]]
                    bit = bits[idx]
                    i = cxi[k]
                    qe = qe_t[i]
                    la -= qe
                    lops += 1
                    if bit == cxm[k] and la & 0x8000:
                        lc += qe
                    else:
                        if bit == cxm[k]:
                            if la < qe:
                                la = qe
                            else:
                                lc += qe
                            cxi[k] = nmps_t[i]
                        else:
                            if la < qe:
                                lc += qe
                            else:
                                la = qe
                            if sw_t[i]:
                                cxm[k] = bit
                            cxi[k] = nlps_t[i]
                        n = sh[la]
                        lops += n
                        while n >= lct:
                            la <<= lct
                            lc <<= lct
                            n -= lct
                            lc, lct = bout(lc)
                        la <<= n
                        lc <<= n
                        lct -= n
                    if bit:
                        la, lc, lct, lops = make_significant(
                            idx, la, lc, lct, lops
                        )
        a, c, ct, ops = la, lc, lct, lops

    results = []
    for values, width, height, orientation in prepared:
        magnitude = np.abs(values)
        planes = int(magnitude.max()).bit_length()
        if planes == 0:
            results.append(CodeBlockResult(b"", 0, 0, 0))
            continue

        w, h = width, height
        size = w * h
        edge = _edge_flags(w, h)
        zc = ZC_LUT[orientation]
        stripes, order = _scan_layout(w, h)
        sign = (values < 0).tobytes()
        sigma[:size] = zero_fill[:size]
        visited[:size] = zero_fill[:size]
        refined[:size] = zero_fill[:size]
        nb[:size] = zero_fill[:size]
        hv[:size] = hv_fill[:size]
        cx_index[:] = (0,) * 19
        cx_mps[:] = (0,) * 19
        cx_index[0] = 4
        cx_index[CTX_RUN] = 3
        cx_index[CTX_UNI] = 46

        # INITENC (the reference MqEncoder's initialisation).
        out[:] = b"\x00"
        a = 0x8000
        c = 0
        ct = 12
        ops = 0

        # Per pass: live bytes so far (minus the sentinel) plus headroom
        # for the bits still held in C — the reference's pass marks.
        marks = []
        for plane in range(planes - 1, -1, -1):
            plane_bits = ((magnitude >> plane) & 1).astype(np.uint8)
            bits = plane_bits.tobytes()
            if plane != planes - 1:
                significance_pass(bits)
                marks.append(len(out) + 4)
                refinement_pass(plane_bits)
                marks.append(len(out) + 4)
            cleanup_pass(bits)
            marks.append(len(out) + 4)
            visited[:size] = zero_fill[:size]

        # FLUSH: SETBITS, then two byte emissions.
        temp = c + a
        c |= 0xFFFF
        if c >= temp:
            c -= 0x8000
        c, ct = byte_out(c << ct)
        byte_out(c << ct)
        data = bytes(out[1:])
        if data.endswith(b"\xff"):
            data = data[:-1]
        pass_lengths = [min(mark, len(data)) for mark in marks]
        pass_lengths[-1] = len(data)
        results.append(
            CodeBlockResult(data, len(marks), planes, ops, pass_lengths)
        )
    return results
