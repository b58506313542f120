"""Op recording semantics: records carry dtype and output shape, and
capture tokens detach safely under nesting."""

import numpy as np

from repro.tensor import recording, tensor


class TestRecordingSemantics:
    """Records carry executed metadata; tokens detach under nesting."""

    def test_records_carry_dtype_and_out_shape(self):
        with recording.capture() as ops:
            a = tensor(np.ones((2, 3), dtype=np.float32))
            b = tensor(np.ones((3, 4), dtype=np.float32))
            a.matmul(b)
        (record,) = recording.matmuls(ops)
        assert record.dtype == "float32"
        assert record.out_shape == (2, 4)

    def test_detach_is_nesting_safe(self):
        outer: list = []
        inner: list = []
        outer_token = recording.attach(outer)
        inner_token = recording.attach(inner)
        recording.record("op1", (1,))
        # Detach the *outer* capture first: inner must keep recording.
        recording.detach(outer_token)
        recording.record("op2", (2,))
        recording.detach(inner_token)
        recording.record("op3", (3,))  # no sinks left: dropped

        assert [r.kind for r in outer] == ["op1"]
        assert [r.kind for r in inner] == ["op1", "op2"]
        # Detach is idempotent.
        recording.detach(outer_token)
        recording.detach(inner_token)
