"""Tests for the NumPy backend implementation of the Backend protocol."""

import ctypes
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.backends import get_backend
from repro.backends.interface import dense_qr
from repro.backends.numpy_backend import NumPyBackend
from repro.utils.flops import FlopCounter
from tests.conftest import FAST, random_complex


class TestRegistry:
    def test_get_backend_default_is_numpy(self):
        assert get_backend().name == "numpy"
        assert get_backend(None).name == "numpy"

    def test_get_backend_aliases(self):
        assert get_backend("np").name == "numpy"
        assert get_backend("ctf").name == "distributed"
        assert get_backend("cyclops").name == "distributed"

    def test_get_backend_passthrough_instance(self):
        b = NumPyBackend()
        assert get_backend(b) is b

    def test_get_backend_instance_with_kwargs_raises(self):
        with pytest.raises(ValueError):
            get_backend(NumPyBackend(), nprocs=4)

    def test_get_backend_unknown_raises(self):
        with pytest.raises(ValueError):
            get_backend("no-such-backend")
        with pytest.raises(TypeError):
            get_backend(42)


class TestCreation:
    def test_astensor_and_asarray_roundtrip(self, numpy_backend, rng):
        data = random_complex(rng, (3, 4))
        t = numpy_backend.astensor(data)
        assert np.array_equal(numpy_backend.asarray(t), data)

    def test_astensor_dtype_conversion(self, numpy_backend):
        t = numpy_backend.astensor([[1, 2], [3, 4]], dtype=np.complex128)
        assert t.dtype == np.complex128

    def test_zeros_ones_eye(self, numpy_backend):
        assert numpy_backend.item(
            numpy_backend.einsum("ij->", numpy_backend.ones((2, 2)))
        ) == pytest.approx(4.0)

    def test_random_uniform_range_and_determinism(self, numpy_backend):
        a = numpy_backend.random_uniform((50,), -1, 1, rng=3)
        b = numpy_backend.random_uniform((50,), -1, 1, rng=3)
        assert np.array_equal(a, b)
        assert np.all(np.abs(a.real) <= 1.0) and np.all(np.abs(a.imag) <= 1.0)


class TestAlgebra:
    def test_einsum_matches_numpy(self, numpy_backend, rng):
        a = random_complex(rng, (3, 4))
        b = random_complex(rng, (4, 5))
        out = numpy_backend.einsum("ij,jk->ik", a, b)
        assert np.allclose(out, a @ b)

    def test_reshape_transpose_conj_copy(self, numpy_backend, rng):
        a = random_complex(rng, (2, 3, 4))
        r = numpy_backend.reshape(a, (6, 4))
        assert numpy_backend.shape(r) == (6, 4)
        t = numpy_backend.transpose(a, (2, 0, 1))
        assert numpy_backend.shape(t) == (4, 2, 3)
        assert np.allclose(numpy_backend.conj(a), a.conj())
        c = numpy_backend.copy(a)
        c[0, 0, 0] = 99.0
        assert a[0, 0, 0] != 99.0

    def test_norm_and_item(self, numpy_backend, rng):
        a = random_complex(rng, (7, 3))
        assert numpy_backend.norm(a) == pytest.approx(np.linalg.norm(a))
        assert numpy_backend.item(np.array([[2.5 + 1j]])) == 2.5 + 1j
        with pytest.raises(ValueError):
            numpy_backend.item(a)


class TestFactorizations:
    def test_svd_reconstruction(self, numpy_backend, rng):
        a = random_complex(rng, (8, 5))
        u, s, vh = numpy_backend.svd(a)
        assert np.allclose(u @ np.diag(s) @ vh, a)
        assert np.all(np.diff(s) <= 1e-12)  # descending

    def test_svd_requires_matrix(self, numpy_backend, rng):
        with pytest.raises(ValueError):
            numpy_backend.svd(random_complex(rng, (2, 2, 2)))

    def test_qr_reconstruction_and_orthogonality(self, numpy_backend, rng):
        a = random_complex(rng, (9, 4))
        q, r = numpy_backend.qr(a)
        assert np.allclose(q @ r, a)
        assert np.allclose(q.conj().T @ q, np.eye(4), atol=1e-12)

    @FAST
    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 12),
        dtype=st.sampled_from([np.float64, np.complex128]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dense_qr_is_numpy_reduced_qr_bitwise(self, m, n, dtype, seed):
        """Every shape (k = min(m, n) below, at and above n), real and complex."""
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((m, n))
        if dtype is np.complex128:
            a = a + 1j * gen.standard_normal((m, n))
        q, r = dense_qr(a)
        q_ref, r_ref = np.linalg.qr(a, mode="reduced")
        assert (q.dtype, q.shape, r.dtype, r.shape) == (
            q_ref.dtype, q_ref.shape, r_ref.dtype, r_ref.shape)
        assert q.tobytes() == q_ref.tobytes()
        assert r.tobytes() == r_ref.tobytes()

    def test_flop_counter_integration(self, rng):
        counter = FlopCounter()
        backend = NumPyBackend(flop_counter=counter)
        a = random_complex(rng, (10, 10))
        backend.einsum("ij,jk->ik", a, a)
        backend.svd(a)
        backend.qr(a)
        cats = counter.by_category()
        assert set(cats) == {"einsum", "svd", "qr"}
        assert all(v > 0 for v in cats.values())


class TestDerivedHelpers:
    def test_shape_ndim_size(self, numpy_backend, rng):
        a = random_complex(rng, (2, 3, 4))
        assert numpy_backend.shape(a) == (2, 3, 4)
        assert numpy_backend.ndim(a) == 3

    def test_to_local_from_local_are_identity(self, numpy_backend, rng):
        a = random_complex(rng, (3, 3))
        assert np.array_equal(numpy_backend.to_local(a), a)
        assert np.array_equal(numpy_backend.from_local(a), a)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_fresh(code: str, **variables) -> str:
    """Run ``code`` in a new interpreter (a fresh heap) and return its stdout;
    ``variables`` set environment variables, ``None`` unsets one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for name, value in variables.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def has_mallopt() -> bool:
    try:
        ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return True


class TestHeapPolicy:
    """Importing the backend makes the allocator keep freed heap pages."""

    @pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
    def test_warm_expectations_take_few_page_faults(self):
        # Without the policy each of these calls zero-fills ~25 000 fresh pages.
        faults = run_fresh("""
            import resource
            from repro.operators.hamiltonians import heisenberg_j1j2
            from repro.peps import BMPS, random_peps
            from repro.peps.envs.boundary import BoundaryEnvironment
            from repro.tensornetwork import ExplicitSVD

            env = BoundaryEnvironment(random_peps(4, 4, bond_dim=3, seed=5), BMPS(ExplicitSVD(9)))
            hamiltonian = heisenberg_j1j2(4, 4)
            env.expectation(hamiltonian)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                env.expectation(hamiltonian)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        assert int(faults) < 2000

    @pytest.mark.parametrize("loader, calls", [
        ("raise OSError(name)", []),
        ("return object()", []),
        ("return Libc()", [(-2, 64 << 20)]),
    ], ids=["no-libc", "no-mallopt", "glibc"])
    def test_policy_is_applied_once_or_skipped_silently(self, loader, calls):
        printed = run_fresh(f"""
            import ctypes
            import numpy as np

            calls = []

            class Mallopt:
                def __call__(self, param, value):
                    calls.append((param, value))
                    return 1

            class Libc:
                mallopt = Mallopt()

            def load(name, *args, **kwargs):
                {loader}

            ctypes.CDLL = load
            import repro.backends.numpy_backend
            from repro.backends import get_backend

            a = np.arange(12.0).reshape(3, 4)
            for name in ("numpy", "distributed"):
                backend = get_backend(name)
                product = backend.to_local(backend.einsum("ij,kj->ik", backend.astensor(a), backend.astensor(a)))
                assert np.allclose(product, a @ a.T)
            print(calls)
        """)
        assert printed.strip() == repr(calls)


class TestBlasThreadPolicy:
    """Importing the backend runs every loaded BLAS on one thread."""

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps")
    def test_records_do_not_depend_on_openblas_num_threads(self):
        # A norm_dist-shaped IBMPS: its value moved 2e-4 relative between one
        # and two OpenBLAS threads before the library set the count itself.
        code = """
            from repro.backends import get_backend
            from repro.peps import BMPS, random_peps
            from repro.tensornetwork import ImplicitRandomizedSVD

            backend = get_backend("distributed", nprocs=4, executor="simulated")
            state = random_peps(4, 4, bond_dim=3, backend=backend, seed=11)
            print(float(state.norm(BMPS(ImplicitRandomizedSVD(rank=12, seed=11)))).hex())
        """
        records = {threads: run_fresh(code, OPENBLAS_NUM_THREADS=threads)
                   for threads in (None, "1", "2")}
        assert len(set(records.values())) == 1, records

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps")
    def test_every_loaded_blas_and_forked_workers_read_one_thread(self):
        printed = run_fresh("""
            import ctypes
            import multiprocessing
            import os

            from repro.backends import numpy_backend
            from repro.telemetry import REGISTRY

            def threads():
                counts = []
                with open("/proc/self/maps") as maps:
                    paths = sorted({line.split(None, 5)[5].strip() for line in maps
                                    if len(line.split(None, 5)) == 6})
                for path in paths:
                    if numpy_backend._BLAS_LIBRARY.match(os.path.basename(path)):
                        library = ctypes.CDLL(path)
                        for name in ("scipy_openblas_get_num_threads64_",
                                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                            if hasattr(library, name):
                                counts.append(getattr(library, name)())
                                break
                return counts

            print(numpy_backend.BLAS_THREADS, REGISTRY.value("backends.blas_threads"))
            print(numpy_backend.BLAS_THREADS_NOTE)
            print(threads())
            with multiprocessing.get_context("fork").Pool(1) as pool:
                print(pool.apply(threads))
        """, OPENBLAS_NUM_THREADS="2")
        gauge, note, here, forked = printed.splitlines()
        assert gauge == "1 1", note
        assert note.startswith("one thread: ")
        assert here == forked and set(json.loads(here)) == {1}

    def test_a_library_without_a_known_setter_is_left_alone(self):
        printed = run_fresh("""
            import ctypes

            ctypes.CDLL = lambda name, *args, **kwargs: object()
            from repro.backends import numpy_backend
            from repro.telemetry import REGISTRY

            print(numpy_backend.BLAS_THREADS, REGISTRY.value("backends.blas_threads"))
            print(numpy_backend.BLAS_THREADS_NOTE)
        """)
        gauge, note = printed.splitlines()
        assert gauge == "0 0"
        assert note.startswith("no thread count set: ")
