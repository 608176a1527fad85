"""Frozen test-side reference: the per-filter tracker as of commit 060cd9b.

``ukf``, ``association`` and ``tracker`` are copies of those modules from
before the tracker kept its filters in one table. Each filter there is a
``FilterState`` of Python floats, predicted and updated one at a time. The
differential test (``test_tracker_oracle.py``) feeds the same detection sets
to this tracker and to ``skelfuse.tracker`` and requires equal events and
bit-equal snapshots. Change these files only to strengthen the reference
when the tracker's behaviour changes on purpose, never to narrow the check.
"""
