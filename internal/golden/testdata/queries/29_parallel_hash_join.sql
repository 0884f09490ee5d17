-- hash join over the bulk relation: trades is built, companies probes it
SELECT companies.cname, companies.country, trades.amount
FROM companies, trades
WHERE trades.cname = companies.cname AND trades.amount < 200
