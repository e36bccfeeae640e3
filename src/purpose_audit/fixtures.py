"""Bundled example models and logs, as the document text that
``purpose-audit examples`` writes.

The physician fixture models a specialist who takes an X-ray, can usually
diagnose directly (state 2) but sometimes must refer the record to an outside
practice (state 4); referral from the clear-image state is medically
redundant. Two reward tables share the structure: treatment quality pays for
reaching a diagnosis, while the billing table pays the referral fee and the
diagnosis fees. The billing fees are pinned so that at the clear-image state
referring-then-diagnosing ties direct diagnosis exactly (12 = 9 + gamma *
10/3 at gamma = 9/10), which keeps the by-the-book strategy optimal under
both tables.

The travel fixture models someone who can drive to one of two cities or fly
to both, with separate reward tables for the business meeting and the
lecture; driving pays 2, flying 1, attending nothing 0.
"""

PHYSICIAN_MODEL = """\
# Physician referral environment.
# States: 1 seen patient, 2 X-ray clear, 3 record at own practice (redundant
# referral), 4 X-ray unclear, 5 outside test succeeded, 6 done.
gamma: 9/10
states: 1 2 3 4 5 6
actions: take send diagnose

transition: 1 take -> 2 9/10, 4 1/10
transition: 2 send -> 3 1
transition: 2 diagnose -> 6 1
transition: 3 diagnose -> 6 1
transition: 4 send -> 5 4/5, 6 1/5
transition: 5 diagnose -> 6 1
transition: 6 send -> 6 1

purpose: treat
reward: 2 diagnose = 12
reward: 3 diagnose = 12
reward: 5 diagnose = 12

purpose: profit
# Referral fee 9 either way; diagnosis billing tied so that direct diagnosis
# and refer-then-diagnose are worth the same from state 2.
reward: 2 send = 9
reward: 4 send = 9
reward: 2 diagnose = 12
reward: 3 diagnose = 10/3
reward: 5 diagnose = 10/3
"""

PHYSICIAN_LOG = """\
# One record per line: the redundant referral, then the necessary one.
1 take 2 send 3 diagnose 6 N 6
1 take 4 send 5 diagnose 6 N 6
"""

TRAVEL_MODEL = """\
# Traveler choosing between driving to one event or flying to both.
gamma: 9/10
states: home nyDrove dcDrove nyFlew dcFlew bothFlown
actions: driveNY driveDC flyNY flyDC

transition: home driveNY -> nyDrove 1
transition: home driveDC -> dcDrove 1
transition: home flyNY -> nyFlew 1
transition: home flyDC -> dcFlew 1
transition: nyFlew flyDC -> bothFlown 1
transition: dcFlew flyNY -> bothFlown 1

purpose: business
reward: home driveNY = 2
reward: home flyNY = 1
reward: dcFlew flyNY = 1

purpose: lecture
reward: home driveDC = 2
reward: home flyDC = 1
reward: nyFlew flyDC = 1
"""

TRAVEL_LOG = """\
# Flying to both events, then the drive-only itinerary.
home flyNY nyFlew flyDC bothFlown N bothFlown
home driveNY nyDrove N nyDrove
"""
