-- an ordered mediation: the branches stream into the union and the
-- post-union step sorts their rows
-- mode: mediate
-- receiver: c2
-- ordered: true
SELECT rl.cname, rl.revenue FROM r1 rl, r2
WHERE rl.cname = r2.cname
AND rl.revenue > r2.expenses
ORDER BY rl.cname
