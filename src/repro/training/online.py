"""Online (per-packet) channel training (paper §4.3.3).

Each packet carries a training section in which every one of the ``2L`` DSM
transmitters fires a known, linearly-independent on/off pattern (rows of a
Hadamard matrix) at full level.  Given the offline KL basis tables, the
receiver predicts each (transmitter, basis) contribution waveform and
solves the ``2*S*L`` complex coefficients by least squares; composing
``sum_s theta_s * basis_s`` per transmitter yields the effective reference
table the DFE equalises with — absorbing per-LCM gain, polarizer error,
rotation residue and yaw-induced illumination spread in one shot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lcm.fingerprint import FingerprintTable
from repro.modem.config import ModemConfig
from repro.modem.references import GroupReference, ReferenceBank
from repro.utils.opcache import fingerprint, fingerprint_config, fingerprint_table, resolve_opcache

__all__ = ["OnlineTrainer", "TrainingDiagnostics", "TrainingSequence"]


@dataclass(frozen=True)
class TrainingDiagnostics:
    """Quality indicators of one online least-squares solve.

    ``residual_ratio`` is the fit's residual power over the training
    segment's power — close to the noise-to-signal ratio for a healthy
    solve, and far above it when the training section was corrupted or the
    system was ill-conditioned.
    """

    residual_ratio: float
    rank: int
    n_columns: int
    max_coefficient: float

    @property
    def rank_deficient(self) -> bool:
        """True when the design matrix lost rank (degenerate solve)."""
        return self.rank < self.n_columns

    @property
    def finite(self) -> bool:
        """True when every solved coefficient is a finite number."""
        return bool(np.isfinite(self.max_coefficient))


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def _hadamard(n: int) -> np.ndarray:
    """Sylvester's +/-1 Hadamard matrix of order ``n`` (a power of two)."""
    h = np.ones((1, 1), dtype=int)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


class TrainingSequence:
    """The known per-group firing patterns of the training section.

    ``n_rounds`` firing rounds of ``L`` slots each; in round ``r`` group
    ``(ch, gi)`` fires level ``m - 1`` if its pattern bit is set, else
    level 0.  Patterns are distinct rows of a Hadamard matrix mapped
    ``+1 -> fire`` — mutually independent and balanced.
    """

    def __init__(self, config: ModemConfig, n_rounds: int | None = None):
        self.config = config
        n_groups = 2 * config.dsm_order
        self.n_rounds = n_rounds or max(_next_pow2(n_groups), 8)
        if self.n_rounds < n_groups:
            raise ValueError(f"need at least {n_groups} rounds for {n_groups} groups")
        h = _hadamard(_next_pow2(self.n_rounds))[:, : self.n_rounds]
        # Row 0 is all ones (also a valid, independent pattern).
        self.patterns = (h[:n_groups] > 0).astype(np.uint8)

    @property
    def n_slots(self) -> int:
        """Training section length in slots (a multiple of L)."""
        return self.n_rounds * self.config.dsm_order

    @property
    def n_samples(self) -> int:
        """Training section length in samples."""
        return self.n_slots * self.config.samples_per_slot

    def pattern_of(self, channel: int, index: int) -> np.ndarray:
        """Firing bits of one group across the training rounds."""
        return self.patterns[channel * self.config.dsm_order + index]

    def group_levels(self, channel: int, index: int) -> np.ndarray:
        """Fired levels of one group across the rounds (0 or m-1)."""
        m = self.config.levels_per_axis
        return self.pattern_of(channel, index).astype(int) * (m - 1)

    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Slot-wise (I, Q) level sequences of the whole training section."""
        cfg = self.config
        levels_i = np.zeros(self.n_slots, dtype=int)
        levels_q = np.zeros(self.n_slots, dtype=int)
        for gi in range(cfg.dsm_order):
            rounds = np.arange(self.n_rounds)
            slots = rounds * cfg.dsm_order + gi
            levels_i[slots] = self.group_levels(0, gi)
            levels_q[slots] = self.group_levels(1, gi)
        return levels_i, levels_q


class OnlineTrainer:
    """Per-packet least-squares solver over offline basis tables."""

    def __init__(
        self,
        config: ModemConfig,
        basis_tables: list[FingerprintTable],
        sequence: TrainingSequence | None = None,
        preceding_levels: tuple[np.ndarray, np.ndarray] | None = None,
        observer=None,
        opcache=None,
    ):
        if not basis_tables:
            raise ValueError("need at least one basis table")
        from repro.obs import ensure_observer

        self._obs = ensure_observer(observer)
        self.config = config
        self.basis_tables = basis_tables
        self.sequence = sequence or TrainingSequence(config)
        self.preceding_levels = preceding_levels
        # One assembly bank per basis (unit coefficients).
        self._basis_banks = [
            ReferenceBank.from_unit_table(config, table) for table in basis_tables
        ]
        self._design_cache: np.ndarray | None = None
        self._factor_cache: tuple[np.ndarray, np.ndarray, np.ndarray, int] | None = None
        self._opcache = resolve_opcache(opcache)
        self._key_cache: tuple | None = None

    @property
    def n_bases(self) -> int:
        """Number of KL bases S."""
        return len(self.basis_tables)

    # ------------------------------------------------------------ predict

    def _preceding_firings(self, channel: int, index: int) -> list[int]:
        """A group's firing levels before training, oldest first.

        Prepended with ``V`` virtual level-0 firings so the group's rest
        pedestal (and the tail of its last pre-training pulse) is present in
        the design column from sample zero.
        """
        cfg = self.config
        pre = [0] * cfg.tail_memory
        if self.preceding_levels is not None:
            levels = self.preceding_levels[channel]
            if levels.size % cfg.dsm_order:
                raise ValueError("preceding section must be a whole number of DSM rounds")
            pre += [int(v) for v in levels[index :: cfg.dsm_order]]
        return pre

    def _group_column(self, bank: ReferenceBank, channel: int, index: int) -> np.ndarray:
        """Predicted contribution of one group over the training section.

        Includes the tail of the group's last pre-training pulse (its
        preamble firing, or its rest pedestal) — every sample of the
        training span carries exactly one pulse per group.
        """
        cfg = self.config
        seq = self.sequence
        ts = cfg.samples_per_slot
        w = cfg.samples_per_symbol
        v_prev = cfg.tail_memory - 1
        pre = self._preceding_firings(channel, index)
        all_levels = pre + [int(v) for v in seq.group_levels(channel, index)]
        n_pre = len(pre)
        n_samples = seq.n_samples
        out = np.zeros(n_samples, dtype=complex)
        for k, level in enumerate(all_levels):
            start = ((k - n_pre) * cfg.dsm_order + index) * ts
            if start + w <= 0 or start >= n_samples:
                continue
            prev = tuple(reversed(all_levels[max(k - v_prev, 0) : k]))
            pulse = bank.pulse(channel, index, level, prev)
            lo = max(start, 0)
            hi = min(start + w, n_samples)
            out[lo:hi] += pulse[lo - start : hi - start]
        return out

    def _artifact_key(self) -> tuple:
        """Content key of everything the design matrix derives from.

        Computed once per trainer: the config, each basis table's content
        fingerprint, the training-sequence length, and the preceding
        levels.  Two trainers over physically identical operating points
        produce equal keys regardless of object identity, which is what
        lets per-packet trainer instances share design/factorization
        artifacts through an :class:`~repro.utils.opcache.OpCache`.
        """
        if self._key_cache is None:
            pre = None
            if self.preceding_levels is not None:
                pre = fingerprint(list(self.preceding_levels))
            self._key_cache = (
                fingerprint_config(self.config),
                tuple(fingerprint_table(t) for t in self.basis_tables),
                self.sequence.n_rounds,
                pre,
            )
        return self._key_cache

    def design_matrix(self) -> np.ndarray:
        """Columns: one per (group, basis), over the training samples.

        Constant per (sequence, bases, preceding levels); cached in the
        instance and, when an opcache is attached, shared across trainer
        instances at the same operating point.
        """
        if self._design_cache is not None:
            return self._design_cache
        if self._opcache is not None:
            self._design_cache = self._opcache.get(
                "training_design", self._artifact_key(), self._build_design
            )
        else:
            self._design_cache = self._build_design()
        return self._design_cache

    def _build_design(self) -> np.ndarray:
        cfg = self.config
        cols = []
        for bank in self._basis_banks:
            for ch in (0, 1):
                for gi in range(cfg.dsm_order):
                    cols.append(self._group_column(bank, ch, gi))
        return np.stack(cols, axis=1)

    def _factorization(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Thin SVD of the design matrix plus its numerical rank.

        The old solver let ``np.linalg.lstsq`` redo a full SVD for every
        packet even though the design matrix is operating-point constant.
        The factorization is now computed once (per trainer, or per
        operating point when an opcache is attached) and every solve just
        applies the pseudoinverse.  The rank rule replicates
        ``lstsq(rcond=None)``: singular values at or below
        ``max(M, N) * eps * s_max`` are treated as zero.
        """
        if self._factor_cache is not None:
            return self._factor_cache
        if self._opcache is not None:
            self._factor_cache = self._opcache.get(
                "training_factorization", self._artifact_key(), self._build_factorization
            )
        else:
            self._factor_cache = self._build_factorization()
        return self._factor_cache

    def _build_factorization(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        a = self.design_matrix()
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        rcond = max(a.shape) * np.finfo(s.dtype).eps
        cutoff = rcond * (float(s[0]) if s.size else 0.0)
        rank = int(np.count_nonzero(s > cutoff))
        return u, s, vh, rank

    # -------------------------------------------------------------- solve

    def solve(self, z_training: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        """Least-squares coefficients per group from the corrected samples.

        Returns ``{(channel, index): theta}`` with ``theta`` of length S.
        """
        coefficients, _ = self.solve_with_diagnostics(z_training)
        return coefficients

    def solve_with_diagnostics(
        self, z_training: np.ndarray
    ) -> tuple[dict[tuple[int, int], np.ndarray], TrainingDiagnostics]:
        """Like :meth:`solve`, plus fit-quality diagnostics.

        The hardened receiver uses the diagnostics to decide whether the
        trained bank is trustworthy or whether it should fall back to the
        nominal reference bank.
        """
        z = np.asarray(z_training, dtype=complex)
        if z.size < self.sequence.n_samples:
            raise ValueError(
                f"training segment has {z.size} samples; need {self.sequence.n_samples}"
            )
        a = self.design_matrix()
        z = z[: self.sequence.n_samples]
        # Minimum-norm least squares via the cached pseudoinverse factors —
        # the same solution (to machine precision) and the same rank /
        # singular-value semantics as lstsq(rcond=None), without re-running
        # an SVD per packet.
        u, sv, vh, rank = self._factorization()
        inv = np.zeros(sv.shape, dtype=float)
        if rank:
            inv[:rank] = 1.0 / sv[:rank]
        theta = vh.conj().T @ ((u.conj().T @ z) * inv)
        residual = z - a @ theta
        signal_power = float(np.mean(np.abs(z) ** 2))
        residual_power = float(np.mean(np.abs(residual) ** 2))
        diagnostics = TrainingDiagnostics(
            residual_ratio=residual_power / signal_power if signal_power > 0 else float("inf"),
            rank=int(rank),
            n_columns=a.shape[1],
            max_coefficient=float(np.max(np.abs(theta))) if theta.size else 0.0,
        )
        if self._obs.enabled:
            m = self._obs.metrics
            m.count("training.solves_total")
            m.observe("training.residual_ratio", diagnostics.residual_ratio)
            m.gauge("training.rank", diagnostics.rank)
            # lstsq already paid for the singular values; their ratio is the
            # design matrix's 2-norm condition number.
            if sv.size and sv[-1] > 0:
                m.observe("training.condition_number", float(sv[0] / sv[-1]))
        cfg = self.config
        n_groups = 2 * cfg.dsm_order
        out: dict[tuple[int, int], np.ndarray] = {}
        for ch in (0, 1):
            for gi in range(cfg.dsm_order):
                g = ch * cfg.dsm_order + gi
                out[(ch, gi)] = theta[np.arange(self.n_bases) * n_groups + g]
        return out, diagnostics

    # ------------------------------------------------------------- compose

    def build_bank(self, coefficients: dict[tuple[int, int], np.ndarray]) -> ReferenceBank:
        """Compose per-group effective tables into a demodulation bank."""
        cfg = self.config
        first = self.basis_tables[0]
        groups: list[GroupReference] = []
        template = self._basis_banks[0]
        for ch in (0, 1):
            for gi in range(cfg.dsm_order):
                theta = np.asarray(coefficients[(ch, gi)], dtype=complex)
                if theta.size != self.n_bases:
                    raise ValueError(f"group ({ch},{gi}) has {theta.size} coefficients, need {self.n_bases}")
                composed = FingerprintTable(order=first.order, tick_s=first.tick_s, fs=first.fs)
                composed.chunks = {
                    ctx: sum(
                        theta[s] * self.basis_tables[s].chunks[ctx] for s in range(self.n_bases)
                    )
                    for ctx in range(first.n_contexts)
                }
                nominal_group = template.group(ch, gi)
                groups.append(
                    GroupReference(
                        channel=ch,
                        index=gi,
                        area_fracs=nominal_group.area_fracs.copy(),
                        unit_tables=[composed] * len(nominal_group.area_fracs),
                        basis=nominal_group.basis,
                    )
                )
        return ReferenceBank(cfg, groups)

    def train(self, z_training: np.ndarray) -> ReferenceBank:
        """Solve and compose in one step."""
        return self.build_bank(self.solve(z_training))
