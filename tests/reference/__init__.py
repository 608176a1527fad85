"""Frozen test-side references: the per-filter tracker, the full-frame renderer, per-joint lifting,
the one-person truth model.

``ukf``, ``association`` and ``tracker`` are copies of those modules as of
commit 060cd9b, before the tracker kept its filters in one table. Each
filter there is a ``FilterState`` of Python floats, predicted and updated one
at a time. The differential test (``test_tracker_oracle.py``) feeds the same
detection sets to this tracker and to ``skelfuse.tracker`` and requires
equal events and bit-equal snapshots.

``render`` is the simulator's depth renderer as of commit e7bef20, which drew
every person's depth into two full-frame images; ``test_sim.py`` requires
the windowed renderer to reproduce it bit for bit.

``lift`` is the lifting path as of commit a3c2b2f, which sampled each
joint's depth with its own ``median_depth`` call; ``test_lifting.py``
requires the frame-at-a-time lifting to reproduce it bit for bit.

``truth`` is the simulator's truth model as of commit 8793574, which built
one person's pose at one time; ``test_sim.py`` requires
``GroundTruth.poses``, every person at every time, to reproduce it bit for
bit.

Change these files only to strengthen a reference when the program's
behaviour changes on purpose, never to narrow the check.
"""
