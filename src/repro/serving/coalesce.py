"""Request coalescing: identical in-flight queries share one search.

A request whose query is already queued in the batcher, or already
dispatched but not yet complete, piggybacks on that leader's search and
completes with it.  Followers add no queue load, so the frontend runs
coalescing before admission and the result cache (see
:mod:`repro.serving.frontend`).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.serving.request import COALESCED, Request


class Coalescer:
    """Deduplicates identical in-flight queries.

    Tracks two kinds of leaders: *queued* (still in the batcher; their
    followers resolve at dispatch) and *dispatched* (results priced but
    not yet back; followers resolve immediately against the pending
    entry).  Entries retire once their completion time passes — from
    then on the result cache answers repeats.  ``observe(request, at)``
    (the frontend's outcome tap) is passed to each call that can
    resolve a follower, so the coalescer itself holds plain data only.
    """

    def __init__(self) -> None:
        self._queued_leader: dict[int, Request] = {}
        self._followers: dict[int, list[Request]] = {}
        # query_id -> (completion_s, ids_row, dists_row, searched_k)
        self._inflight: dict[int, tuple[float, np.ndarray, np.ndarray, int]] = {}
        self._retire_heap: list[tuple[float, int]] = []

    def try_coalesce(self, request: Request, now: float, observe) -> bool:
        """Piggyback ``request`` on an identical in-flight query, if any.

        A dispatched-but-incomplete search is preferred (it finishes
        soonest); otherwise the request attaches to a queued leader.
        The follower must not want more results than the leader's
        search produces.
        """
        entry = self._inflight.get(request.query_id)
        if entry is not None:
            completion, _, _, searched_k = entry
            if completion > now and request.k <= searched_k:
                self._resolve(request, entry, observe)
                return True
        leader = self._queued_leader.get(request.query_id)
        if leader is not None and request.k <= leader.k:
            self._followers.setdefault(leader.request_id, []).append(request)
            return True
        return False

    def note_queued(self, request: Request) -> None:
        """``request`` entered the batcher; it can lead followers.

        The widest-k queued request leads: its search covers every
        narrower duplicate, so later arrivals coalesce instead of
        re-searching.
        """
        leader = self._queued_leader.get(request.query_id)
        if leader is None or request.k > leader.k:
            self._queued_leader[request.query_id] = request

    def on_dispatch(
        self,
        request: Request,
        ids_row: np.ndarray,
        dists_row: np.ndarray,
        searched_k: int,
        completion: float,
        observe,
    ) -> None:
        """A batch member's results are priced: resolve its followers
        and open the dispatched-entry piggyback window."""
        if self._queued_leader.get(request.query_id) is request:
            del self._queued_leader[request.query_id]
        entry = (completion, ids_row, dists_row, searched_k)
        for follower in self._followers.pop(request.request_id, ()):
            self._resolve(follower, entry, observe)
        self._inflight[request.query_id] = entry
        heapq.heappush(self._retire_heap, (completion, request.query_id))

    def retire(self, now: float) -> None:
        """Drop dispatched entries whose results have landed."""
        while self._retire_heap and self._retire_heap[0][0] <= now:
            completion, query_id = heapq.heappop(self._retire_heap)
            entry = self._inflight.get(query_id)
            if entry is not None and entry[0] <= completion:
                del self._inflight[query_id]

    def has_followers(self, request: Request) -> bool:
        """Whether ``request`` leads coalesced followers (and so must
        not be preempted — its followers would dangle unresolved)."""
        return bool(self._followers.get(request.request_id))

    def forget_queued(self, request: Request) -> None:
        """``request`` left the batcher without dispatching (preempted);
        stop offering it as a coalescing leader."""
        if self._queued_leader.get(request.query_id) is request:
            del self._queued_leader[request.query_id]

    def _resolve(self, request: Request, entry, observe) -> None:
        completion, ids, dists, _ = entry
        request.completion_s = completion
        request.outcome = COALESCED
        request.result_ids = ids[: request.k].copy()
        request.result_dists = dists[: request.k].copy()
        observe(request, completion)
