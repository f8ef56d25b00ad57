"""Layer timers for traced runs, installed from outside the program.

Each public function is replaced by a timing wrapper in every module
that looks it up, so the program's own code is unchanged.  Only the
outermost call of each function is timed, which keeps recursive calls
(evaluate) and nested lookups (certify_independence inside
verify_certificate) from being counted twice.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from fractions import Fraction
from time import perf_counter


class LayerStats:
    def __init__(self):
        self.ms = defaultdict(float)
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)

    def reset(self):
        self.ms.clear()
        self.counts.clear()

    def as_dict(self):
        return {"ms": dict(self.ms), "counts": dict(self.counts)}

    def timed(self, name, fn, count=None, classify=None):
        """Wrap fn; count(result) adds to counts[name], classify renames."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth[name]:
                return fn(*args, **kwargs)
            label = classify(*args) if classify else name
            self._depth[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ms[label] += (perf_counter() - t0) * 1e3
                self._depth[name] -= 1
            self.counts[label] += count(out) if count else 1
            return out

        return wrapper


def _counting(stats, name, entries):
    for entry in entries:
        stats.counts[name] += 1
        yield entry


def _root_classifier():
    """Label a signature_of_matrix call as a root or regular point.

    Every diagonal block the benchmark feeds in is congruent to a
    T(2, n) matrix or its mirror, with n = block size + 1, whose
    Alexander polynomial vanishes at exp(2 pi i x) exactly when 2 n x
    is an odd integer other than n.
    """
    sizes = {}

    def classify(v, x):
        entry = sizes.get(id(v))
        if entry is None:
            entry = sizes[id(v)] = (v, {len(b) for b in v.diagonal_blocks()})
        x = Fraction(x) % 1
        for s in entry[1]:
            y = 2 * (s + 1) * x
            if y.denominator == 1 and y.numerator % 2 and x != Fraction(1, 2):
                return "signatures.root_point"
        return "signatures.regular_point"

    return classify


def install():
    """Wrap the program's public functions; returns the LayerStats they feed."""
    from knotcert import certify, cli, covers, knots, obstruction, signatures

    stats = LayerStats()

    def patch(modules, attr, name, **kw):
        wrapped = stats.timed(name, getattr(modules[0], attr), **kw)
        for module in modules:
            setattr(module, attr, wrapped)

    patch([certify, cli], "certify_independence", "certify.certify")
    patch([certify], "verify_certificate", "certify.verify")
    cert_cls = certify.IndependenceCertificate
    cert_cls.to_json_dict = stats.timed("certify.serialize",
                                        cert_cls.to_json_dict)
    cli._emit = stats.timed("certify.serialize", cli._emit)
    patch([certify], "check_slice_obstruction", "obstruction.sweep",
          count=lambda r: r.subgroup_count)
    digest = stats.timed("obstruction.digest", obstruction.witness_list_digest)

    @functools.wraps(digest)
    def digest_counted(entries):
        return digest(_counting(stats, "obstruction.witnesses_digested", entries))

    obstruction.witness_list_digest = digest_counted
    certify.witness_list_digest = digest_counted
    patch([certify], "obstruction_sum", "obstruction.replay")
    patch([obstruction, cli], "enumerate_subgroups", "subgroups.enumerate",
          count=len)
    patch([knots, signatures, cli], "evaluate", "knots.evaluate")
    patch([certify], "check_ordering_hypothesis", "signatures.ordering")
    patch([signatures], "signature_of_matrix", "signatures.signature",
          classify=_root_classifier())
    patch([knots], "det_poly", "polynomials.det_poly")
    patch([covers], "homology_from_seifert", "covers.homology")
    return stats
