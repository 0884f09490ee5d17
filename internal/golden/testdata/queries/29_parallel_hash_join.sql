-- hash join under parallelism 4: the join has no parallel form, so the
-- plan is the serial one and trades is built, companies probes it
-- parallelism: 4
SELECT companies.cname, companies.country, trades.amount
FROM companies, trades
WHERE trades.cname = companies.cname AND trades.amount < 200
