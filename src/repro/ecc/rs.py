"""Systematic Reed-Solomon codes over GF(2^m).

The chipkill codes of the paper are RS codes whose symbols map one-to-one
onto DRAM chips (or DQ pins):

* SSC (Figure 4(b)): RS(18, 16) over GF(256) -- 16 data symbols + 2 parity
  symbols, minimum distance 3, corrects any single symbol (= chip) error.
* SSC-DSD: the 36-chip wide-channel organization of Section 2.3 with 4-bit
  beat-level symbols.  A plain RS code over GF(16) cannot reach length 36
  (n <= 15); production SSC-DSD codes are custom SbEC-DbED designs.  We
  keep the chip-granularity protection by grouping each chip's bits per
  codeword into one GF(256) symbol and using RS(36, 32) -- same distance
  (5), same per-chip failure coverage, standard decoder.

The decoder is the classic syndrome / Berlekamp-Massey / Chien / Forney
pipeline, so it handles any number of errors up to floor((n-k)/2) and flags
uncorrectable patterns instead of miscorrecting (up to the code's
guarantees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .gf import GF, field


class DecodeFailure(Exception):
    """The received word is detectably uncorrectable."""


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a decode attempt."""

    data: Tuple[int, ...]  # corrected data symbols
    corrected_positions: Tuple[int, ...]  # codeword positions fixed
    detected_only: bool = False  # True when errors were detected but not fixed

    @property
    def corrected(self) -> int:
        return len(self.corrected_positions)


class ReedSolomon:
    """A systematic RS(n, k) code over GF(2^m).

    Codewords are ``k`` data symbols followed by ``n - k`` parity symbols.
    """

    def __init__(self, n: int, k: int, m: int) -> None:
        gf = field(m)
        if not 0 < k < n < gf.size:
            raise ValueError(
                f"invalid RS parameters n={n}, k={k} over GF(2^{m})"
            )
        self.n = n
        self.k = k
        self.m = m
        self.gf = gf
        self.nparity = n - k
        # generator polynomial g(x) = prod_{i=1..n-k} (x - alpha^i)
        g = [1]
        for i in range(1, self.nparity + 1):
            g = gf.poly_mul(g, [gf.alpha_pow(i), 1])
        self.generator = g
        self._batch_tables = None

    @property
    def correctable(self) -> int:
        """Maximum number of guaranteed-correctable symbol errors."""
        return self.nparity // 2

    @property
    def min_distance(self) -> int:
        return self.nparity + 1

    # -------------------------------------------------------------- encode

    def encode(self, data: Sequence[int]) -> List[int]:
        """Append parity: systematic encoding via polynomial division."""
        if len(data) != self.k:
            raise ValueError(f"expected {self.k} data symbols, got {len(data)}")
        for s in data:
            if not 0 <= s < self.gf.size:
                raise ValueError(f"symbol {s} out of range for GF(2^{self.m})")
        gf = self.gf
        # message * x^(n-k) mod g(x)
        remainder = [0] * self.nparity
        for symbol in data:
            feedback = symbol ^ remainder[-1]
            remainder = [0] + remainder[:-1]
            if feedback:
                for i in range(self.nparity):
                    # generator is monic: skip its leading coefficient
                    remainder[i] ^= gf.mul(self.generator[i], feedback)
        # remainder indexed low->high corresponds to parity symbols; emit so
        # that codeword = data + parity evaluates consistently in decode.
        parity = list(reversed(remainder))
        return list(data) + parity

    # ------------------------------------------------------- batch kernels
    #
    # Systematic RS encoding and syndrome computation are GF(2^m)-linear,
    # so whole batches of codewords reduce to table lookups: multiply via
    # the log/antilog tables (the doubled exp table absorbs the modulo),
    # mask out zero operands, and XOR-reduce.  The scalar ``encode`` /
    # ``syndromes`` above stay as the reference oracle.

    def _kernels(self):
        """Lazy batch-kernel tables."""
        if self._batch_tables is None:
            log, exp = self.gf.np_tables()
            # parity rows of the systematic generator matrix: parity(e_j)
            # for each unit data vector e_j (encode is linear over GF, so
            # parity(d) = XOR_j d_j * parity(e_j) symbol-wise)
            pgen = np.zeros((self.k, self.nparity), dtype=np.int64)
            for j in range(self.k):
                unit = [0] * self.k
                unit[j] = 1
                pgen[j] = self.encode(unit)[self.k:]
            # syndrome locator logs: S_i = XOR_j c_j * alpha^(i*(n-1-j))
            i_idx = np.arange(1, self.nparity + 1, dtype=np.int64)
            j_exp = (self.n - 1 - np.arange(self.n, dtype=np.int64))
            loc_log = (i_idx[:, None] * j_exp[None, :]) % (self.gf.size - 1)
            for arr in (pgen, loc_log):
                arr.setflags(write=False)
            self._batch_tables = (log, exp, pgen, log[pgen], loc_log)
        return self._batch_tables

    def _check_symbols(self, arr, width: int, what: str):
        if arr.ndim != 2 or arr.shape[1] != width:
            raise ValueError(
                f"expected a (batch, {width}) array of {what} symbols, "
                f"got shape {arr.shape}"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= self.gf.size):
            raise ValueError(f"symbol out of range for GF(2^{self.m})")

    def encode_batch(self, data):
        """Systematic encode of a whole ``(batch, k)`` array of symbols.

        Returns a ``(batch, n)`` int64 array (data columns first, parity
        appended), bit-identical to row-wise :meth:`encode`.
        """
        log, exp, pgen, pgen_log, _ = self._kernels()
        arr = np.asarray(data, dtype=np.int64)
        self._check_symbols(arr, self.k, "data")
        term = exp[log[arr][:, :, None] + pgen_log[None, :, :]]
        zero = (arr[:, :, None] == 0) | (pgen[None, :, :] == 0)
        parity = np.bitwise_xor.reduce(np.where(zero, 0, term), axis=1)
        return np.concatenate([arr, parity], axis=1)

    def syndromes_batch(self, codewords):
        """Syndromes of a whole ``(batch, n)`` array of codewords.

        Returns a ``(batch, n - k)`` int64 array matching row-wise
        :meth:`syndromes`; a row of zeros means a valid codeword.
        """
        log, exp, _, _, loc_log = self._kernels()
        arr = np.asarray(codewords, dtype=np.int64)
        self._check_symbols(arr, self.n, "codeword")
        term = exp[log[arr][:, None, :] + loc_log[None, :, :]]
        zero = arr[:, None, :] == 0
        return np.bitwise_xor.reduce(np.where(zero, 0, term), axis=2)

    # -------------------------------------------------------------- decode

    def syndromes(self, codeword: Sequence[int]) -> List[int]:
        """S_i = C(alpha^i) for i = 1..n-k, with C ordered highest power
        first (codeword[0] is the highest-degree coefficient)."""
        if len(codeword) != self.n:
            raise ValueError(
                f"expected {self.n} codeword symbols, got {len(codeword)}"
            )
        limit = 1 << self.m
        for s in codeword:
            if not 0 <= s < limit:
                raise ValueError(
                    f"symbol {s} out of range for GF(2^{self.m})"
                )
        gf = self.gf
        out = []
        for i in range(1, self.nparity + 1):
            x = gf.alpha_pow(i)
            acc = 0
            for symbol in codeword:
                acc = gf.mul(acc, x) ^ symbol
            out.append(acc)
        return out

    def decode(self, received: Sequence[int]) -> DecodeResult:
        """Correct up to ``correctable`` symbol errors.

        Raises :class:`DecodeFailure` when the error pattern is detected to
        exceed the correction capability.
        """
        if len(received) != self.n:
            raise ValueError(f"expected {self.n} symbols, got {len(received)}")
        gf = self.gf
        synd = self.syndromes(received)
        if not any(synd):
            return DecodeResult(tuple(received[: self.k]), ())
        sigma = self._berlekamp_massey(synd)
        nerrors = len(sigma) - 1
        if nerrors > self.correctable:
            raise DecodeFailure(
                f"detected more than {self.correctable} symbol errors"
            )
        positions = self._chien_search(sigma)
        if len(positions) != nerrors:
            raise DecodeFailure("error locator has wrong number of roots")
        magnitudes = self._forney(synd, sigma, positions)
        corrected = list(received)
        for pos, mag in zip(positions, magnitudes):
            corrected[pos] ^= mag
        if any(self.syndromes(corrected)):
            raise DecodeFailure("correction did not produce a codeword")
        return DecodeResult(tuple(corrected[: self.k]), tuple(positions))

    # ------------------------------------------------------------ internals

    def _berlekamp_massey(self, synd: List[int]) -> List[int]:
        """Error-locator polynomial sigma(x), lowest degree first."""
        gf = self.gf
        sigma = [1]
        prev = [1]
        length = 0
        mshift = 1
        b = 1
        for i, s in enumerate(synd):
            # discrepancy
            d = s
            for j in range(1, length + 1):
                if j < len(sigma) and sigma[j]:
                    d ^= gf.mul(sigma[j], synd[i - j])
            if d == 0:
                mshift += 1
            elif 2 * length <= i:
                temp = list(sigma)
                scale = gf.div(d, b)
                shifted = [0] * mshift + gf.poly_scale(prev, scale)
                sigma = gf.poly_add(sigma, shifted)
                prev = temp
                length = i + 1 - length
                b = d
                mshift = 1
            else:
                scale = gf.div(d, b)
                shifted = [0] * mshift + gf.poly_scale(prev, scale)
                sigma = gf.poly_add(sigma, shifted)
                mshift += 1
        # strip trailing zeros
        while len(sigma) > 1 and sigma[-1] == 0:
            sigma.pop()
        return sigma

    def _chien_search(self, sigma: List[int]) -> List[int]:
        """Positions (0 = first transmitted symbol) where sigma has roots."""
        gf = self.gf
        positions = []
        for pos in range(self.n):
            # symbol at position pos has locator alpha^(n-1-pos)
            x_inv = gf.inv(gf.alpha_pow(self.n - 1 - pos))
            if self.gf.poly_eval(sigma, x_inv) == 0:
                positions.append(pos)
        return positions

    def _forney(
        self, synd: List[int], sigma: List[int], positions: List[int]
    ) -> List[int]:
        """Error magnitudes via the Forney algorithm."""
        gf = self.gf
        # error evaluator omega(x) = [S(x) * sigma(x)] mod x^(n-k)
        s_poly = list(synd)  # S_1 + S_2 x + ...
        omega = gf.poly_mul(s_poly, sigma)[: self.nparity]
        deriv = gf.poly_deriv(sigma)
        magnitudes = []
        for pos in positions:
            x = gf.alpha_pow(self.n - 1 - pos)  # locator X_j
            x_inv = gf.inv(x)
            num = gf.poly_eval(omega, x_inv)
            den = gf.poly_eval(deriv, x_inv)
            if den == 0:
                raise DecodeFailure("Forney denominator vanished")
            # narrow-sense code (first root alpha^1):
            # magnitude = omega(X_j^-1) / sigma'(X_j^-1)
            magnitudes.append(gf.div(num, den))
        return magnitudes
