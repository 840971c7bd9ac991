"""The classical macro-dataflow (contention-free) communication model.

This is the model the paper argues *against* (§1): unlimited ports, no
link contention.  A transfer starts the instant its data is ready and
takes ``W = volume * d(src, dst)``; nothing is ever reserved, so the undo
log is trivial.  FTSA and FTBAR were originally designed for this model —
running them under both models quantifies the impact of contention.
"""

from __future__ import annotations

from repro.comm.base import FrontierView, KernelCaps, NetworkModel


class MacroDataflowNetwork(NetworkModel):
    """Contention-free network: transfers never wait for resources."""

    name = "macro-dataflow"

    _view: FrontierView | None = None

    def kernel_caps(self) -> KernelCaps | None:
        if type(self) is not MacroDataflowNetwork:
            return None  # subclasses must re-declare (see NetworkModel)
        return KernelCaps(contention=False)

    def frontier_view(self) -> FrontierView:
        # Nothing is ever reserved: the view carries only the delays.
        if self._view is None:
            self._view = FrontierView(self.platform.delay_matrix)
        return self._view

    def transfer_slot(
        self, src: int, dst: int, ready: float, volume: float
    ) -> tuple[float, float]:
        return ready, ready + self.transfer_time(src, dst, volume)

    def reserve_transfer(
        self,
        src: int,
        dst: int,
        volume: float,
        start: float,
        finish: float,
        logged: bool = False,
    ) -> None:
        pass

    def sender_bound(self, src: int, dst: int, ready: float, volume: float) -> float:
        return ready + self.transfer_time(src, dst, volume)

    def checkpoint(self) -> int:
        return 0

    def rollback(self, token: int) -> None:
        pass

    def commit(self) -> None:
        pass

    def reset(self) -> None:
        pass
