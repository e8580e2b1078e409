import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmsig import gf2

import reference
from reference import (
    column_product,
    column_table,
    identity,
    naive_mat_mul,
    naive_rank,
    naive_rref,
    product_table,
    same_row_space,
    systematic_form,
    systematize,
    vec_product,
)


SHAPES = [(1, 1), (7, 9), (8, 16), (13, 70), (64, 33), (130, 12), (386, 129)]
"""Table shapes (rows, cols) of the packed-form and one-row tests."""


def rand_mat(rng, rows, cols):
    return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)


def unpack(packed, n=None):
    """The binary matrix whose packed rows are packed, n columns wide
    (square by default)."""
    return np.unpackbits(packed, axis=1, count=packed.shape[0] if n is None else n)


def pack(a):
    return np.packbits(a, axis=1)


def blas_mat_mul(a, b):
    """a @ b mod 2 through float64 BLAS, exact while sums stay below 2**52."""
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) & 1


class TestMatMul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rand_mat(rng, 3, 3)
        assert np.array_equal(gf2.mat_mul(identity(3), a), a)
        assert np.array_equal(gf2.mat_mul(a, identity(3)), a)

    def test_small_case_vs_naive(self):
        a = np.array([[1, 1], [0, 1]], dtype=np.uint8)
        b = np.array([[1, 0], [1, 1]], dtype=np.uint8)
        expected = naive_mat_mul(a, b)
        assert np.array_equal(expected, [[0, 1], [1, 1]])
        assert np.array_equal(gf2.mat_mul(a, b), expected)

    def test_zero(self):
        rng = np.random.default_rng(1)
        a = rand_mat(rng, 4, 5)
        z = np.zeros((5, 2), dtype=np.uint8)
        assert not gf2.mat_mul(a, z).any()

    def test_random_vs_naive(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rand_mat(rng, rng.integers(1, 8), rng.integers(1, 8))
            b = rand_mat(rng, a.shape[1], rng.integers(1, 8))
            assert np.array_equal(gf2.mat_mul(a, b), naive_mat_mul(a, b))
            # The tests' matrix-vector reference agrees with the loops.
            assert np.array_equal(vec_product(a, b[:, 0]), naive_mat_mul(a, b[:, :1])[:, 0])

    def test_associative(self):
        rng = np.random.default_rng(3)
        a, b, c = rand_mat(rng, 5, 6), rand_mat(rng, 6, 4), rand_mat(rng, 4, 7)
        left = gf2.mat_mul(gf2.mat_mul(a, b), c)
        right = gf2.mat_mul(a, gf2.mat_mul(b, c))
        assert np.array_equal(left, right)

    def test_distributes_over_xor(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rand_mat(rng, 6, 5)
            b = rand_mat(rng, 5, 4)
            c = rand_mat(rng, 5, 4)
            assert np.array_equal(
                gf2.mat_mul(a, b ^ c), gf2.mat_mul(a, b) ^ gf2.mat_mul(a, c)
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gf2.mat_mul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))
        # A vector is no right operand: tests take H e from vec_product.
        with pytest.raises(ValueError, match="shape mismatch"):
            gf2.mat_mul(np.zeros((2, 3), dtype=np.uint8), np.zeros(3, dtype=np.uint8))

    def test_paths_agree_on_binary_operands(self):
        """Each product path at its threshold gives a @ b for binary
        operands: BLAS for a b of _TABLE_MIN - 1 columns, a table built
        for the call from _TABLE_MIN columns on, a table passed in or
        standing in for b, and a one-row gather.  A zero row and
        an all-ones row are among a's rows.  An inner dimension of 0, a
        table with no rows, gives zeros."""
        rng = np.random.default_rng(12)
        for inner in (301, 0):
            a = rand_mat(rng, gf2._TABLE_MIN, inner)
            a[0], a[-1] = 0, 1
            b = rand_mat(rng, inner, gf2._TABLE_MIN + 3)
            expected = blas_mat_mul(a, b)
            table = product_table(b)
            narrow = gf2._TABLE_MIN - 1
            assert np.array_equal(gf2.mat_mul(a, b[:, :narrow]), expected[:, :narrow])  # BLAS
            assert np.array_equal(gf2.mat_mul(a, b), expected)  # a table for the call
            assert np.array_equal(gf2.mat_mul(a, b, table), expected)
            assert np.array_equal(gf2.mat_mul(a, table), expected)
            for i in (0, 1, gf2._TABLE_MIN - 1):
                assert np.array_equal(gf2.mat_mul(a[i : i + 1], table), expected[i : i + 1])

    @pytest.mark.parametrize(
        "rows, cols", [(256, 256), (300, 700), (255, 700), (700, 255), (1, 1024), (2, 300)]
    )
    def test_table_only_for_large_products(self, monkeypatch, rows, cols):
        """mat_mul builds a table for a call iff b has at least
        _TABLE_MIN columns, whatever a's height."""
        built = []

        class Recording(gf2.ProductTable):
            def __init__(self, rows, c):
                built.append((rows.shape[0], c))
                super().__init__(rows, c)

        monkeypatch.setattr(gf2, "ProductTable", Recording)
        rng = np.random.default_rng(rows + cols)
        a, b = rand_mat(rng, rows, 301), rand_mat(rng, 301, cols)
        assert np.array_equal(gf2.mat_mul(a, b), blas_mat_mul(a, b))
        assert built == ([(301, cols)] if cols >= gf2._TABLE_MIN else [])

    @pytest.mark.parametrize("rows", [1, 2])
    def test_few_rows_by_wide_b_make_no_float_copy(self, rows):
        """A product of one or two rows by a wide b, as R e_np is for a
        batch of decoded errors, reads a table of b's packed rows: it
        allocates less than b itself, where a float32 copy of b would
        take four times as much."""
        rng = np.random.default_rng(rows)
        a, b = rand_mat(rng, rows, 1023), rand_mat(rng, 1023, 1024)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = gf2.mat_mul(a, b)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, blas_mat_mul(a, b))
        assert peak < b.nbytes, peak

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1))
    def test_one_row_product_is_a_gather(self, shape, seed):
        """mat_mul multiplies one row by mat_vec's gather of the table's
        rows, unpacked: it equals v @ b before and after the subset table
        exists, and does not build it."""
        rows, cols = shape
        rng = np.random.default_rng(seed)
        b = rand_mat(rng, rows, cols)
        table = gf2.ProductTable(np.packbits(b, axis=1), cols)
        vectors = [np.zeros(rows, dtype=np.uint8), np.ones(rows, dtype=np.uint8)]
        vectors += [rand_mat(rng, 1, rows)[0] for _ in range(3)]
        for subsets_built in (False, True):
            for v in vectors:
                got = gf2.mat_mul(v[None], table)
                assert got.shape == (1, cols) and got.dtype == np.uint8
                gathered = np.unpackbits(gf2.mat_vec(table, np.flatnonzero(v)), count=cols)
                assert np.array_equal(got[0], gathered)
                assert np.array_equal(got, naive_mat_mul(v[None], b))
            assert ("_subsets" in vars(table)) is subsets_built
            gf2.mat_mul(np.stack(vectors[:2]), table)  # two rows build it

    def test_one_row_packs_no_operand(self, monkeypatch):
        """A one-row product packs no row of a (gf2.pack_rows), whether
        its table is passed as table=, stands in for b or is built for a
        wide b, whose rows are then the only ones packed."""
        rng = np.random.default_rng(55)
        b = rand_mat(rng, 301, gf2._TABLE_MIN + 3)
        table = product_table(b)
        packed, real = [], gf2.pack_rows

        def recording(x):
            packed.append(x.shape)
            return real(x)

        monkeypatch.setattr(gf2, "pack_rows", recording)
        for a in (np.zeros((1, 301), np.uint8), np.ones((1, 301), np.uint8), rand_mat(rng, 1, 301)):
            expected = naive_mat_mul(a, b)
            assert np.array_equal(gf2.mat_mul(a, b, table), expected)
            assert np.array_equal(gf2.mat_mul(a, table), expected)
            assert packed == []
            assert np.array_equal(gf2.mat_mul(a, b), expected)
            assert packed == [b.shape]
            packed.clear()


class TestProductTable:
    """Four-Russians products against the naive triple loop."""

    @pytest.mark.parametrize("rows", [1, 3, 9])
    @pytest.mark.parametrize("k,c", [(1, 1), (5, 63), (13, 64), (70, 65), (21, 130)])
    def test_vs_naive(self, rows, k, c):
        rng = np.random.default_rng(rows * 1000 + k * 10 + c)
        a, b = rand_mat(rng, rows, k), rand_mat(rng, k, c)
        table = product_table(b)
        expected = naive_mat_mul(a, b)
        assert np.array_equal(gf2.mat_mul(a, b, table), expected)
        # Column-major and strided operands give the same product, and so
        # do tables of a transposed view of b and of a transposed column
        # slice (as P' read from H_m); such an operand is packed the same way.
        assert np.array_equal(gf2.mat_mul(np.asfortranarray(a), b, table), expected)
        wide = np.repeat(a, 2, axis=1)
        assert np.array_equal(gf2.mat_mul(wide[:, ::2], b, table), expected)
        a_slice, b_slice = np.zeros((k, rows + 5), np.uint8), np.zeros((c, k + 5), np.uint8)
        a_slice[:, 2 : 2 + rows], b_slice[:, 3 : 3 + k] = a.T, b.T
        a_view, b_view = a_slice[:, 2 : 2 + rows].T, b_slice[:, 3 : 3 + k].T
        assert np.array_equal(gf2.mat_mul(a_view, b, table), expected)
        for view in (np.ascontiguousarray(b.T).T, b_view):
            assert np.array_equal(gf2.mat_mul(a, view, product_table(view)), expected)

    @pytest.mark.parametrize("k,c", [(5, 63), (13, 130), (301, 259)])
    def test_one_packed_row_vs_naive(self, k, c):
        """ProductTable.product of a single packed row, with pad bits in
        its last byte and in the table's last word, is a @ b: one row
        reads the Four-Russians table like any other height."""
        rng = np.random.default_rng(k + c)
        b = rand_mat(rng, k, c)
        table = product_table(b)
        for a in (np.zeros((1, k), np.uint8), np.ones((1, k), np.uint8), rand_mat(rng, 1, k)):
            got = table.product(np.packbits(a, axis=1))
            assert got.shape == (1, (c + 7) // 8)
            assert np.array_equal(got, np.packbits(naive_mat_mul(a, b), axis=1))

    @pytest.mark.parametrize("k,c", [(7, 9), (67, 129)])
    def test_all_ones(self, k, c):
        a = np.ones((4, k), dtype=np.uint8)
        b = np.ones((k, c), dtype=np.uint8)
        got = gf2.mat_mul(a, b, product_table(b))
        assert np.array_equal(got, np.full((4, c), k & 1, dtype=np.uint8))
        assert np.array_equal(got, naive_mat_mul(a, b))

    @pytest.mark.parametrize("k", [1, 8, 21])
    def test_no_columns(self, k):
        # An RM(m-1, m) key punctures its only parity column, so P' is k x 0.
        rng = np.random.default_rng(k)
        a, b = rand_mat(rng, 3, k), np.zeros((k, 0), dtype=np.uint8)
        assert np.array_equal(gf2.mat_mul(a, b, product_table(b)), naive_mat_mul(a, b))

    def test_chunked_gather_vs_blas(self):
        # 300 rows x 100 groups x 10 words exceeds one gather, so the XOR
        # runs over several group chunks.
        rng = np.random.default_rng(5)
        a, b = rand_mat(rng, 300, 397), rand_mat(rng, 397, 630)
        assert 300 * 100 * 10 > gf2._GATHER_WORDS
        assert np.array_equal(gf2.mat_mul(a, b, product_table(b)), blas_mat_mul(a, b))

    @pytest.mark.parametrize("rows", [1, 6, 12, 16, 256])
    @pytest.mark.parametrize("k", [61, 64, 638])
    def test_operand_layouts_vs_blas(self, rows, k):
        # Calibration's check of a modified code multiplies a column
        # slice of the signing path's errors, column-major for p = 1.
        rng = np.random.default_rng(rows * 1000 + k)
        b = rand_mat(rng, k, 385)
        table = product_table(b)
        columns = rand_mat(rng, k + 11, rows)
        operands = {
            "c_contiguous": np.ascontiguousarray(columns[3 : 3 + k].T),
            "transposed": np.ascontiguousarray(columns[3 : 3 + k]).T,
            "column_slice": columns.T[:, 3 : 3 + k],
        }
        assert operands["c_contiguous"].flags.c_contiguous
        expected = blas_mat_mul(operands["c_contiguous"], b)
        for name, a in operands.items():
            assert np.array_equal(a, operands["c_contiguous"]), name
            assert np.array_equal(gf2.mat_mul(a, b, table), expected), name

    @pytest.mark.parametrize("gather_words", [1, 500, 5000])
    @pytest.mark.parametrize("rows", [16, 256])
    def test_gather_in_chunks_vs_blas(self, monkeypatch, gather_words, rows):
        # 638 columns of a make 160 groups; a small _GATHER_WORDS splits
        # them into one group per chunk, or into chunks with a short last one.
        monkeypatch.setattr(gf2, "_GATHER_WORDS", gather_words)
        rng = np.random.default_rng(gather_words + rows)
        b = rand_mat(rng, 638, 385)
        columns = rand_mat(rng, 1023, rows)
        for a in (columns.T[:, :638], np.ascontiguousarray(columns.T[:, :638])):
            assert np.array_equal(gf2.mat_mul(a, b, product_table(b)), blas_mat_mul(a, b))

    @pytest.mark.parametrize("rows", [gf2._ROW_BLOCK - 1, gf2._ROW_BLOCK, gf2._ROW_BLOCK + 1])
    def test_row_block_spans_vs_blas(self, rows):
        # Each block of _ROW_BLOCK rows gathers only the groups between its
        # first and last nonzero packed byte: a triangle leaves a different
        # span per block, and a zero block none.
        rng = np.random.default_rng(rows)
        lower, upper = map(unpack, gf2.random_unit_triangular(rows, rng))
        gapped = rand_mat(rng, 3 * rows, rows)
        gapped[rows : 2 * rows] = 0
        b = rand_mat(rng, rows, 200)
        table = product_table(b)
        operands = {
            "lower": lower,
            "upper": upper,
            "lower_by_columns": np.ascontiguousarray(lower.T).T,
            "upper_by_columns": np.ascontiguousarray(upper.T).T,
            "middle_block_zero": gapped,
            "middle_block_zero_by_columns": np.ascontiguousarray(gapped.T).T,
            "zero": np.zeros((rows, rows), dtype=np.uint8),
        }
        for name, a in operands.items():
            assert np.array_equal(gf2.mat_mul(a, b, table), blas_mat_mul(a, b)), name

    def test_packbits_axis0_vs_packbits(self):
        # Every word width (rows modulo 8) and every remainder of k modulo
        # 8, for a whole array and for a column slice of a wider one.
        rng = np.random.default_rng(7)
        for rows in range(1, 18):
            for k in range(0, 18):
                wide = rand_mat(rng, k, rows + 7)
                for at in (np.ascontiguousarray(wide[:, 3 : 3 + rows]), wide[:, 3 : 3 + rows]):
                    got = gf2._packbits_axis0(at)
                    expected = np.packbits(at, axis=0)
                    assert np.array_equal(got, expected), (k, rows, at.flags.c_contiguous)

    def test_wrong_table_rejected(self):
        rng = np.random.default_rng(6)
        a, b = rand_mat(rng, 2, 5), rand_mat(rng, 5, 4)
        with pytest.raises(ValueError):
            gf2.mat_mul(a, b, product_table(b[:, :3]))


class TestColumnTable:
    """Matrix-vector products a @ v by mat_vec on the ProductTable of a.T
    packed from a's rows (reference.column_table), as verify reads H',
    against the naive triple loop."""

    # The column counts reach every word size of _packbits_axis0: odd ones
    # uint8, 70 and 130 uint16, 12 and 20 uint32 (test_large_matrix uint64).
    @pytest.mark.parametrize(
        "rows,cols", [(11, 9), (64, 70), (65, 33), (386, 130), (13, 12), (66, 20)]
    )
    def test_vs_naive(self, rows, cols):
        rng = np.random.default_rng(rows * 1000 + cols)
        a = rand_mat(rng, rows, cols)
        table = column_table(a)
        vectors = [np.zeros(cols, dtype=np.uint8), np.ones(cols, dtype=np.uint8)]
        for j in (0, cols // 2, cols - 1):
            one_hot = np.zeros(cols, dtype=np.uint8)
            one_hot[j] = 1
            vectors.append(one_hot)
        vectors += [rand_mat(rng, 1, cols)[0] for _ in range(3)]
        for v in vectors:
            expected = naive_mat_mul(a, v[:, None])[:, 0]
            # mat_vec's product is packed as np.packbits packs it: zero pad bits.
            packed = gf2.mat_vec(table, np.flatnonzero(v))
            assert packed.dtype == np.uint8 and np.array_equal(packed, np.packbits(expected))
            for form in (v, v.astype(bool), v.astype(np.int64)):
                got = column_product(table, form)
                assert got.shape == (rows,) and got.dtype == np.uint8
                assert np.array_equal(got, expected)
                assert np.array_equal(vec_product(a, form), expected)

    @pytest.mark.parametrize("rows,cols", [(11, 9), (386, 130)])
    def test_least_significant_bit_rule(self, rows, cols):
        """Both products read a uint8 entry by its least significant bit:
        2 counts as 0, 3 and 255 as 1."""
        rng = np.random.default_rng(rows + cols)
        a = rand_mat(rng, rows, cols)
        table = column_table(a)
        for values in ((2,), (3,), (255,), (0, 1, 2, 3, 255)):
            v = rng.choice(np.array(values, dtype=np.uint8), size=cols)
            got = column_product(table, v)
            assert np.array_equal(got, vec_product(a, v))
            assert np.array_equal(got, naive_mat_mul(a, (v & 1)[:, None])[:, 0])

    def test_large_matrix(self):
        rng = np.random.default_rng(8)
        a = rand_mat(rng, 300, 520)
        table = column_table(a)
        for _ in range(5):
            v = rand_mat(rng, 1, 520)[0]
            assert np.array_equal(column_product(table, v), vec_product(a, v))

    def test_transposed_view(self):
        # A non-contiguous a: the table is that of its contiguous copy.
        rng = np.random.default_rng(9)
        a = rand_mat(rng, 70, 45).T
        assert not a.flags.c_contiguous
        table = column_table(a)
        assert np.array_equal(table._rows, column_table(np.ascontiguousarray(a))._rows)
        for _ in range(5):
            v = rand_mat(rng, 1, 70)[0]
            assert np.array_equal(column_product(table, v), naive_mat_mul(a, v[:, None])[:, 0])

    def test_wrong_table_rejected(self):
        rng = np.random.default_rng(7)
        a, v = rand_mat(rng, 65, 9), rand_mat(rng, 1, 9)[0]
        for wrong in (column_table(a[:64]), column_table(a.T), product_table(a)):
            with pytest.raises(ValueError):
                gf2.mat_mul(a, v, wrong)
        # A table of a.T is not a product table for a matrix operand of a's shape.
        with pytest.raises(ValueError):
            gf2.mat_mul(a, rand_mat(rng, 9, 2), column_table(a))

    def test_table_is_read_only(self):
        table = column_table(np.ones((3, 4), dtype=np.uint8))
        assert not table._rows.flags.writeable
        gf2.mat_mul(np.ones((2, 4), dtype=np.uint8), table)
        assert not table._subsets.flags.writeable


class TestPackedForms:
    """Tables built from a matrix's packed rows, as the keys hold them."""

    @pytest.mark.parametrize("cells", [64, 1 << 18])
    @pytest.mark.parametrize("rows,cols", SHAPES)
    def test_pack_columns(self, monkeypatch, cells, rows, cols):
        # 64 cells make blocks of 8 rows, so every shape spans several.
        monkeypatch.setattr(gf2, "_COLUMN_BLOCK_CELLS", cells)
        a = rand_mat(np.random.default_rng(rows * cols), rows, cols)
        got = gf2.pack_columns(np.packbits(a, axis=1), cols)
        assert np.array_equal(got, np.packbits(a.T, axis=1))

    @pytest.mark.parametrize("rows,cols", SHAPES)
    def test_pack_columns_of_f_ordered_rows(self, rows, cols):
        # packbits of a transposed view returns F-ordered packed rows.
        at = rand_mat(np.random.default_rng(rows + cols), cols, rows)
        packed = np.packbits(at.T, axis=1)
        assert packed.flags.f_contiguous
        got = gf2.pack_columns(packed, cols)
        assert np.array_equal(got, np.packbits(at, axis=1))

    @pytest.mark.parametrize("rows,cols", SHAPES)
    def test_table_of_packed_head(self, rows, cols):
        """The table of a's first head columns, read from the first
        ceil(head/8) bytes of a's packed rows as they are.  The columns
        after head share the last byte; they are all set here, and reach
        only the product's pad bits, which mat_mul's unpack drops."""
        rng = np.random.default_rng(rows + cols)
        a = rand_mat(rng, rows, cols)
        for head in {1, 7, 8, cols // 2 + 1, cols}:
            if head <= cols:
                tail_set = a.copy()
                tail_set[:, head:] = 1
                packed_head = np.packbits(tail_set, axis=1)[:, : (head + 7) // 8]
                table = gf2.ProductTable(packed_head, head)
                assert table.shape == (rows, head)
                s = rand_mat(rng, 4, rows)
                assert np.array_equal(gf2.mat_mul(s, table), naive_mat_mul(s, a[:, :head])), head

    @pytest.mark.parametrize("rows,cols", SHAPES)
    def test_tables_from_packed_rows(self, rows, cols):
        """A table built from packed rows is the table of the matrix, and
        stands in place of it in mat_mul."""
        rng = np.random.default_rng(rows * 7 + cols)
        a = rand_mat(rng, rows, cols)
        packed = np.packbits(a, axis=1)
        at = gf2.ProductTable(gf2.pack_columns(packed, cols), rows)
        # Column j of a is row j, packed as np.packbits packs a row,
        # zero-padded to whole words and to whole groups of eight rows.
        words = at._rows.view(np.uint8)
        assert np.array_equal(words[:cols, : (rows + 7) // 8], np.packbits(a.T, axis=1))
        assert not words[:, (rows + 7) // 8 :].any() and not words[cols:].any()
        head = gf2.ProductTable(packed, cols)
        for table, matrix in ((at, a.T), (head, a)):
            assert table.shape == matrix.shape
            assert np.array_equal(table._subsets, product_table(matrix)._subsets)
        for _ in range(3):
            v = rand_mat(rng, 1, cols)[0]
            assert np.array_equal(column_product(at, v), naive_mat_mul(a, v[:, None])[:, 0])
            e = rand_mat(rng, 5, cols)
            assert np.array_equal(gf2.mat_mul(e, at), naive_mat_mul(e, a.T))
            s = rand_mat(rng, 4, rows)
            assert np.array_equal(gf2.mat_mul(s, head), naive_mat_mul(s, a))

    @pytest.mark.parametrize("c", [9, 70, 128, 130])
    @pytest.mark.parametrize("rows", [1, 2, 129, 257])
    def test_product_is_packed(self, rows, c):
        """ProductTable.product takes a's packed rows and returns a @ b as
        np.packbits packs it, zero pad bits included, for a square a that
        is random, unit lower or unit upper triangular; a triangle's row
        blocks read only part of the groups.  a's pad bits are not read,
        and a's packed rows may be a strided view."""
        rng = np.random.default_rng(rows * 1000 + c)
        b = rand_mat(rng, rows, c)
        table = gf2.ProductTable(np.packbits(b, axis=1), c)
        for packed in (pack(rand_mat(rng, rows, rows)), *gf2.random_unit_triangular(rows, rng)):
            a = unpack(packed)
            expected = np.packbits(blas_mat_mul(a, b).astype(np.uint8), axis=1)
            got = table.product(packed)
            assert got.dtype == np.uint8 and got.flags.c_contiguous
            assert np.array_equal(got, expected)
            padded = packed.copy()
            if rows % 8:
                padded[:, -1] |= 0xFF >> rows % 8
            wide = np.zeros((rows, packed.shape[1] + 3), dtype=np.uint8)
            wide[:, 1:-2] = padded
            assert np.array_equal(table.product(padded), expected)
            assert np.array_equal(table.product(wide[:, 1:-2]), expected)

    def test_product_rejects_unpacked_rows(self):
        table = gf2.ProductTable(np.packbits(np.ones((9, 5), dtype=np.uint8), axis=1), 5)
        for a in (np.ones((3, 9), dtype=np.uint8), np.ones((3, 1), dtype=np.uint8), np.ones(2)):
            with pytest.raises(ValueError):
                table.product(a)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1))
    def test_mat_vec_matches_product_on_one_table(self, shape, seed):
        """mat_vec reads the table's rows, and a product of two or more
        rows the subset table built from them on first use: on one table
        both give v @ b, before and after that build."""
        rows, cols = shape
        rng = np.random.default_rng(seed)
        b = rand_mat(rng, rows, cols)
        table = gf2.ProductTable(np.packbits(b, axis=1), cols)
        vectors = [np.zeros(rows, dtype=np.uint8)] + [rand_mat(rng, 1, rows)[0] for _ in range(3)]
        before = [gf2.mat_vec(table, np.flatnonzero(v)) for v in vectors]
        assert "_subsets" not in vars(table)
        pairs = [gf2.mat_mul(np.stack([v, v]), table) for v in vectors]
        assert "_subsets" in vars(table)
        assert all(np.array_equal(first, second) for first, second in pairs)
        products = [np.packbits(first) for first, _ in pairs]
        for v, packed, product in zip(vectors, before, products):
            assert np.array_equal(packed, product)
            assert np.array_equal(gf2.mat_vec(table, np.flatnonzero(v)), product)
            assert np.array_equal(product, np.packbits(naive_mat_mul(v[None], b)))

    def test_wrong_table_operand_rejected(self):
        rng = np.random.default_rng(10)
        a = rand_mat(rng, 9, 5)
        columns, product = column_table(a), product_table(a)
        square = product_table(rand_mat(rng, 4, 4))
        for operand in (
            rand_mat(rng, 1, 4)[0],  # a vector of the wrong length
            rand_mat(rng, 5, 2),  # a column table for a matrix product
        ):
            with pytest.raises(ValueError):
                column_product(columns, operand)
        for left, right in (
            (rand_mat(rng, 2, 8), product),  # a product table of the wrong height
            (product, rand_mat(rng, 1, 5)[0]),  # a product table on the left
            (square, square),  # two tables
        ):
            with pytest.raises(ValueError):
                gf2.mat_mul(left, right)


class TestXorGroupLaws:
    def test_self_inverse_and_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.integers(0, 2, size=rng.integers(1, 40), dtype=np.uint8)
            assert not (v ^ v).any()
            assert np.array_equal(v ^ np.zeros_like(v), v)

    def test_commutative_associative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = rng.integers(1, 40)
            u, v, w = (rng.integers(0, 2, size=n, dtype=np.uint8) for _ in range(3))
            assert np.array_equal(u ^ v, v ^ u)
            assert np.array_equal((u ^ v) ^ w, u ^ (v ^ w))


class TestInvert:
    """gf2.invert takes the packed rows of a unit lower-triangular matrix
    only and returns packed rows; the Gauss-Jordan oracle
    (reference.invert) takes any square binary matrix and checks it."""

    def test_identity(self):
        assert np.array_equal(reference.invert(identity(4)), identity(4))
        assert np.array_equal(gf2.invert(pack(identity(4))), pack(identity(4)))

    def test_singular(self):
        with pytest.raises(ValueError, match="singular"):
            reference.invert(np.array([[1, 1], [1, 1]], dtype=np.uint8))

    def test_round_trip_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 65))
            a = reference.random_invertible(n, rng)
            assert np.array_equal(gf2.mat_mul(a, reference.invert(a)), identity(n))

    def test_not_square(self):
        """Not the packed rows of a square matrix: (n, ceil(n/8)) is the
        one shape gf2.invert takes."""
        with pytest.raises(ValueError):
            reference.invert(np.zeros((2, 3), dtype=np.uint8))
        for shape in [(2, 3), (2, 2), (9, 1), (9, 3), (8, 2), (1, 0), (16,)]:
            with pytest.raises(ValueError, match="not the packed rows"):
                gf2.invert(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 163, 386])
    def test_unit_triangular_matches_oracle(self, n):
        """Keygen's L, and its U as the U^T that keygen passes."""
        lower, upper = gf2.random_unit_triangular(n, np.random.default_rng(n))
        for a in (lower, gf2.pack_columns(upper, n)):
            inv = gf2.invert(a)
            assert inv.dtype == np.uint8 and inv.flags.c_contiguous
            assert np.array_equal(inv, pack(reference.invert(unpack(a))))

    def test_dense_triangles_and_views(self):
        """All-ones triangles, and a transposed view of each, packed: the
        lower ones are inverted, from C- or F-ordered packed rows, and a
        unit upper matrix is rejected in either layout."""
        ones = np.ones((130, 130), np.uint8)
        lower, upper = np.tril(ones), np.triu(ones)
        for a in (lower, upper.T):
            expected = pack(reference.invert(a))
            assert np.array_equal(gf2.invert(pack(a)), expected)
            f_ordered = np.packbits(np.ascontiguousarray(a.T).T, axis=1)
            assert f_ordered.flags.f_contiguous
            assert np.array_equal(gf2.invert(f_ordered), expected)
        for a in (upper, lower.T):
            with pytest.raises(ValueError, match="not unit lower triangular"):
                gf2.invert(pack(a))

    @pytest.mark.parametrize(
        "a",
        [
            pack(np.array([[1, 1], [1, 1]], dtype=np.uint8)),  # 1s on both sides of the diagonal
            pack(np.array([[1, 0], [1, 0]], dtype=np.uint8)),  # lower, but a 0 on the diagonal
            pack(np.array([[0, 1], [0, 1]], dtype=np.uint8)),  # upper, but a 0 on the diagonal
            np.array([[128], [448]]),  # not bytes
            np.zeros((0, 0), dtype=np.uint8),
        ],
        ids=["both-sides", "lower-zero-diagonal", "upper-zero-diagonal", "non-binary", "empty"],
    )
    def test_other_matrices_rejected(self, a):
        with pytest.raises(ValueError):
            gf2.invert(a)

    def test_one_entry_off_the_triangle_rejected(self):
        """A 130-row unit lower matrix plus one 1 above the diagonal, in
        each diagonal block, the block above them, and its transpose."""
        base = np.tril(np.random.default_rng(4).integers(0, 2, (130, 130), dtype=np.uint8), -1)
        base |= identity(130)
        for i, j in [(0, 1), (62, 63), (64, 65), (128, 129), (0, 129), (63, 64), (127, 128)]:
            a = base.copy()
            a[i, j] = 1
            for bad in (a, a.T):
                with pytest.raises(ValueError, match="triangular"):
                    gf2.invert(pack(bad))

    @pytest.mark.parametrize("n", [*range(1, 201), 386, 638, 1586])
    def test_packed_inverse_matches_oracle(self, n):
        """gf2.invert(pack(a)) is pack(reference.invert(a)) for a random
        unit lower a and for the U^T that keygen passes, at every size
        up to 200 and at RM(10,5)'s, RM(11,5)'s and RM(12,6)'s n - k."""
        rng = np.random.default_rng(n)
        lower = np.tril(rand_mat(rng, n, n), -1) | identity(n)
        upper_t = unpack(gf2.pack_columns(gf2.random_unit_triangular(n, rng)[1], n))
        for a in (lower, upper_t):
            assert np.array_equal(gf2.invert(pack(a)), pack(reference.invert(a)))

    @pytest.mark.parametrize("n", [1, 7, 9, 130, 386])
    def test_every_defect_rejected(self, n):
        """A set pad bit, a zero diagonal bit and a bit above the diagonal
        each raise ValueError, in every row that can hold one."""
        rng = np.random.default_rng(n)
        good = pack(np.tril(rand_mat(rng, n, n), -1) | identity(n))
        gf2.invert(good)
        for i in range(n):
            defects = []
            if n % 8:
                pad = good.copy()
                pad[i, -1] |= 1
                defects.append(pad)
            diagonal = good.copy()
            diagonal[i, i >> 3] ^= 128 >> (i & 7)
            defects.append(diagonal)
            if i + 1 < n:
                j = int(rng.integers(i + 1, n))
                above = good.copy()
                above[i, j >> 3] |= 128 >> (j & 7)
                defects.append(above)
            for bad in defects:
                with pytest.raises(ValueError, match="not unit lower triangular"):
                    gf2.invert(bad)


class TestRref:
    def test_matches_naive(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a = rand_mat(rng, rng.integers(1, 10), rng.integers(1, 12))
            red, _ = gf2.rref(a)
            assert np.array_equal(red, naive_rref(a))


def _rm31_raw():
    # Raw evaluation generator of the (8, 4) first-order code.
    pts = np.arange(8)
    return np.array(
        [np.ones(8, dtype=np.uint8), pts & 1, (pts >> 1) & 1, (pts >> 2) & 1],
        dtype=np.uint8,
    )


def _already_systematic():
    p = rand_mat(np.random.default_rng(8), 4, 3)
    return np.concatenate([identity(4), p], axis=1)


def assert_matches_oracle(g, excluded):
    expected = systematic_form(g, excluded)
    if expected is None:
        with pytest.raises(gf2.RankError):
            systematize(g, excluded)
        return
    sys, perm = systematize(g, excluded)
    assert np.array_equal(sys, expected[0])
    assert np.array_equal(perm, expected[1])


class TestSystematize:
    """The elimination oracle that the RM code tests compare against
    (reference.systematize) follows the column-by-column rule."""

    def test_already_systematic(self):
        g = _already_systematic()
        sys, perm = systematize(g)
        assert np.array_equal(sys, g)
        assert np.array_equal(perm, np.arange(7))

    def test_rm31_info_set(self):
        g = _rm31_raw()
        # Excluding column 3 makes [0, 1, 2, 4] the information set.
        sys, perm = systematize(g, excluded=[3])
        assert np.array_equal(perm[:4], [0, 1, 2, 4])
        assert np.array_equal(sys[:, :4], identity(4))
        assert same_row_space(sys, g[:, perm])

    def test_dependent_info_set(self):
        g = _rm31_raw()
        # Columns 0..3 only span three dimensions of the column space.
        with pytest.raises(gf2.RankError):
            systematize(g, excluded=[4, 5, 6, 7])

    def test_wrong_info_size(self):
        # Two non-excluded columns cannot hold an information set for k = 3.
        with pytest.raises(ValueError):
            systematize(identity(3), excluded=[2])

    @pytest.mark.parametrize(
        "make,excluded",
        [
            (_already_systematic, ()),
            (_already_systematic, [0]),
            (_already_systematic, [0, 1, 2]),
            (_already_systematic, [4, 5, 6]),
            (_rm31_raw, ()),
            (_rm31_raw, [3]),
            (_rm31_raw, [0, 1, 2]),
            (_rm31_raw, [4, 5, 6, 7]),
            (_rm31_raw, [0, 3, 5, 6]),
        ],
    )
    def test_fixed_matrices_match_oracle(self, make, excluded):
        assert_matches_oracle(make(), excluded)

    def test_random_full_rank_match_oracle(self):
        rng = np.random.default_rng(12)
        checked = {True: 0, False: 0}
        for _ in range(200):
            k = int(rng.integers(1, 7))
            n = int(rng.integers(k, 13))
            g = rand_mat(rng, k, n)
            if naive_rank(g) < k:
                continue
            excluded = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            assert_matches_oracle(g, excluded)
            checked[systematic_form(g, excluded) is not None] += 1
        # Both outcomes are exercised.
        assert checked[True] >= 50 and checked[False] >= 20

    def test_rank_deficient_g(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = rand_mat(rng, 4, 9)
            g[3] = g[0] ^ g[1]
            with pytest.raises(gf2.RankError):
                systematize(g)
            with pytest.raises(gf2.RankError):
                systematize(g, excluded=[0, 5])

    def test_non_excluded_rank_deficient(self):
        # The non-excluded columns 0, 1 and 2 repeat one column.
        g = np.array([[1, 1, 1, 0, 1], [0, 0, 0, 1, 1]], dtype=np.uint8)
        assert systematic_form(g, [3, 4]) is None
        with pytest.raises(gf2.RankError):
            systematize(g, excluded=[3, 4])
        sys, perm = systematize(g, excluded=[4])
        assert np.array_equal(perm, [0, 3, 1, 2, 4])
        assert np.array_equal(sys[:, :2], identity(2))


class TestRandomMatrices:
    def test_invertible_n1(self):
        rng = np.random.default_rng(9)
        lower, upper = gf2.random_unit_triangular(1, rng)
        assert np.array_equal(unpack(lower), [[1]]) and np.array_equal(unpack(upper), [[1]])

    def test_invertible_deterministic(self):
        a = gf2.random_unit_triangular(8, np.random.default_rng(42))
        b = gf2.random_unit_triangular(8, np.random.default_rng(42))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_invertible_any_seed(self):
        for seed in range(20):
            lower, upper = map(unpack, gf2.random_unit_triangular(8, np.random.default_rng(seed)))
            assert not np.triu(lower, 1).any() and not np.tril(upper, -1).any()
            # S = L @ U is invertible, with inverse U^-1 @ L^-1, where
            # U^-1 is the transpose of (U^T)^-1.
            upper_inv = unpack(gf2.invert(pack(upper.T))).T
            s_inv = gf2.mat_mul(upper_inv, unpack(gf2.invert(pack(lower))))
            assert np.array_equal(gf2.mat_mul(gf2.mat_mul(lower, upper), s_inv), identity(8))

    def test_draw_is_two_masked_byte_draws(self):
        """The factors are the top bits of two full-range byte draws, cut
        by np.tril and np.triu with a unit diagonal and packed, and the
        generator is left where those draws leave it; keys depend on
        both."""
        for seed in range(20):
            n = 1 + 7 * seed  # 1 to 134 rows, most with pad bits
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            lower, upper = gf2.random_unit_triangular(n, ours)
            lo = theirs.integers(0, 256, size=(n, n), dtype=np.uint8) >> 7
            up = theirs.integers(0, 256, size=(n, n), dtype=np.uint8) >> 7
            assert np.array_equal(lower, pack(np.tril(lo, -1) | identity(n)))
            assert np.array_equal(upper, pack(np.triu(up, 1) | identity(n)))
            assert lower.flags.c_contiguous and upper.flags.c_contiguous
            assert np.array_equal(ours.integers(0, 256, 9), theirs.integers(0, 256, 9))

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("shape", [(1586, 1586), (999, 197), (3, 5), (13,), 7, (2, 3, 5)])
    def test_random_bits_are_integers_bits(self, shape, pending):
        # A draw of 3 bytes takes one 32-bit half of a 64-bit word and
        # leaves the other pending for the next draw.
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        if pending:
            ours.integers(0, 2, size=3, dtype=np.uint8)
            theirs.integers(0, 2, size=3, dtype=np.uint8)
        got = gf2.random_bits(shape, ours)
        expected = theirs.integers(0, 2, size=shape, dtype=np.uint8)
        why = (
            "gf2.random_bits no longer draws the bits, or leaves the generator in "
            "the state, of integers(0, 2, dtype=np.uint8); keys would change"
        )
        assert got.dtype == np.uint8 and np.array_equal(got, expected), why
        assert np.array_equal(ours.permutation(101), theirs.permutation(101)), why
        assert np.array_equal(gf2.random_bits(9, ours), theirs.integers(0, 2, 9, np.uint8)), why

    @pytest.mark.parametrize(
        "bit_generator", [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
                          np.random.MT19937]
    )
    def test_random_bytes_are_integers_bytes(self, bit_generator):
        """gf2.random_bytes, read from raw words, gives the bytes of
        integers(0, 256, size, np.uint8) and leaves the generator in the
        same state, a pending 32-bit half included (see
        reference.generator_state): the next integers and permutation
        draws agree, for every bit generator numpy has, after 0 to 3
        one-byte draws (which leave a half pending or not)."""
        for seed in (0, 1, 7, 2**40 + 3):
            for prior in range(4):
                for size in (1, 3, 4, 5, 7, 8, 9, 100, 4097, 386 * 386, 1586 * 1586):
                    ours = np.random.Generator(bit_generator(seed))
                    theirs = np.random.Generator(bit_generator(seed))
                    for _ in range(prior):
                        ours.integers(0, 256, size=1, dtype=np.uint8)
                        theirs.integers(0, 256, size=1, dtype=np.uint8)
                    got = gf2.random_bytes(size, ours)
                    expected = theirs.integers(0, 256, size=size, dtype=np.uint8)
                    where = (bit_generator.__name__, seed, prior, size)
                    assert got.dtype == np.uint8 and np.array_equal(got, expected), where
                    np.testing.assert_equal(
                        reference.generator_state(ours), reference.generator_state(theirs)
                    )
                    assert np.array_equal(ours.integers(0, 1000, 5), theirs.integers(0, 1000, 5)), where
                    assert np.array_equal(ours.permutation(33), theirs.permutation(33)), where


class TestCutUnitLower:
    """gf2.cut_unit_triangles cuts packed rows to the unit lower and unit
    upper triangles."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
    def test_matches_tril_and_triu(self, n):
        """The cuts of a's packed rows, C- or F-ordered, are np.tril(a, -1)
        and np.triu(a, 1) plus the identity, packed, and a is left as it
        was."""
        a = rand_mat(np.random.default_rng(n), n, n)
        lower, upper = pack(np.tril(a, -1) | identity(n)), pack(np.triu(a, 1) | identity(n))
        for packed in (pack(a), np.packbits(np.ascontiguousarray(a.T).T, axis=1)):
            got = gf2.cut_unit_triangles(packed)
            assert np.array_equal(got[0], lower) and np.array_equal(got[1], upper)
            assert np.array_equal(packed, pack(a))

    def test_no_square_temporary(self):
        """RM(12,6)'s factors are 1586 x 1586; cutting their packed rows
        allocates less than one unpacked such matrix, as np.tril would,
        and less than three packed ones: the two cuts and their mask."""
        n = 1586
        packed = pack(rand_mat(np.random.default_rng(3), n, n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gf2.cut_unit_triangles(packed)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3 * packed.nbytes < n * n


class TestPacking:
    def test_round_trip_matrix(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 30))
            a = rand_mat(rng, rows, cols)
            buf = gf2.pack_rows(a).tobytes()
            assert len(buf) == rows * ((cols + 7) // 8)
            packed = np.frombuffer(buf, dtype=np.uint8).reshape(rows, -1)
            assert np.array_equal(np.unpackbits(packed, axis=1, count=cols), a)

    def test_msb_first(self):
        # Bit j of a row sits in byte j//8 at mask 128 >> (j % 8).
        v = np.zeros(10, dtype=np.uint8)
        v[0] = 1
        v[9] = 1
        assert gf2.pack_rows(v[None]).tobytes() == bytes([0b10000000, 0b01000000])
