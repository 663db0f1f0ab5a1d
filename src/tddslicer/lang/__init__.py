"""The mini while-language: parsing, printing, and traced interpretation."""
